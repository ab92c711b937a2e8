"""Oracles that do not come from the code under test.

Everything here is plain Python: ``fractions.Fraction`` arithmetic, quadratic
field elements as pairs of Fractions, complex floats for the numeric orbit
checks, and Pieri-rule Schubert counts.  Nothing imports ``wroncrit``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import comb

# ---------------------------------------------------------------------------
# Schubert counts


def sl2_count(n: int, k: int) -> int:
    """Critical orbits of the sl2 master function with l=(k,), weight 1 at n points."""
    return comb(n, k) - comb(n, k - 1)


def _horizontal_strips(lam: tuple, size: int, cols: int):
    # mu / lam a horizontal strip: lam_i <= mu_i <= lam_{i-1} (mu_0 <= cols)
    rows = len(lam)

    def rec(i: int, left: int, acc: list):
        if i == rows:
            if left == 0:
                yield tuple(acc)
            return
        cap = cols if i == 0 else lam[i - 1]
        for v in range(lam[i], min(cap, lam[i] + left) + 1):
            acc.append(v)
            yield from rec(i + 1, left - (v - lam[i]), acc)
            acc.pop()

    yield from rec(0, size, [])


def _vertical_strips(lam: tuple, size: int, cols: int):
    # mu / lam a vertical strip: each row grows by at most one box
    rows = len(lam)

    def rec(i: int, left: int, acc: list):
        if i == rows:
            if left == 0:
                yield tuple(acc)
            return
        for grow in (0, 1):
            v = lam[i] + grow
            if grow > left or v > cols or (i > 0 and v > acc[-1]):
                continue
            acc.append(v)
            yield from rec(i + 1, left - grow, acc)
            acc.pop()

    yield from rec(0, size, [])


def pieri_count(rows: int, cols: int, classes) -> int:
    """Coefficient of the full rows x cols box in a product of special classes.

    Each class is a partition with a single row, (r,), or a single column,
    (1,)*r; the product is expanded one class at a time by the Pieri rule
    (horizontal strips for rows, vertical strips for columns).
    """
    states = {(0,) * rows: 1}
    for lam in classes:
        lam = tuple(v for v in lam if v)
        if not lam:
            continue
        if len(lam) == 1:
            grow, size = _horizontal_strips, lam[0]
        elif all(v == 1 for v in lam):
            grow, size = _vertical_strips, len(lam)
        else:
            raise ValueError(f"{lam} is neither a row nor a column")
        nxt: dict = {}
        for mu0, c in states.items():
            for mu in grow(mu0, size, cols):
                nxt[mu] = nxt.get(mu, 0) + c
        states = nxt
    return states.get((cols,) * rows, 0)


def master_target(l, weights) -> int:
    """Intersection number behind a master function, by the Pieri rule.

    ``weights`` lists the weight column (m(1)..m(N)) of every marked point.
    The filtration labels are c_i = i - 1 + l_i - l_{i-1} + sum_{j<i} sum_s
    m_s(j); the box is (N+1) x (d - N) with d = max c; a point contributes
    the partition a_j = m(1) + ... + m(N+1-j), infinity the partition
    d - N + i - e_i (i = 0..N) of the sorted labels e.
    """
    N = len(l)
    lz = (0,) + tuple(l) + (0,)
    c, acc = [], 0
    for i in range(1, N + 2):
        c.append(i - 1 + lz[i] - lz[i - 1] + acc)
        if i <= N:
            acc += sum(m[i - 1] for m in weights)
    d = max(c)
    classes = []
    for m in weights:
        # a_j = sum_{el=j..N} m(N - el + 1), j = 1..N+1
        classes.append(tuple(sum(m[N - el] for el in range(j, N + 1)) for j in range(1, N + 2)))
    e = sorted(c)
    classes.append(tuple(d - N + i - e[i] for i in range(N + 1)))
    return pieri_count(N + 1, d - N, classes)


def self_test(ladder) -> list[str]:
    """Pinned classical values, and Pieri against the closed sl2 form."""
    bad = []
    if pieri_count(2, 2, [(1,)] * 4) != 2:
        bad.append("sigma_1^4 on Gr(2,4) is not 2")
    if pieri_count(2, 3, [(1,)] * 6) != 5:
        bad.append("sigma_1^6 on Gr(2,5) is not 5")
    for n, k in ladder:
        got = master_target((k,), [(1,)] * n)
        if got != sl2_count(n, k):
            bad.append(f"Pieri gives {got} for sl2 n={n} k={k}, closed form {sl2_count(n, k)}")
    return bad


# ---------------------------------------------------------------------------
# numeric orbit checks


def bethe_residuals(levels, zs, weights):
    """Components of the log-gradient of the master function, with scales.

    Returns (value, sum of absolute values of its terms) per coordinate.
    """
    out = []
    for i, lev in enumerate(levels):
        for j, t in enumerate(lev):
            terms = [2 / (t - u) for k, u in enumerate(lev) if k != j]
            for adj in (i - 1, i + 1):
                if 0 <= adj < len(levels):
                    terms += [-1 / (t - u) for u in levels[adj]]
            terms += [-m[i] / (t - z) for z, m in zip(zs, weights) if m[i]]
            out.append((sum(terms), sum(abs(v) for v in terms)))
    return out


def separation(levels, zs, weights) -> float:
    """Smallest distance the admissibility conditions require to be nonzero."""
    gaps = []
    for i, lev in enumerate(levels):
        gaps += [abs(a - b) for j, a in enumerate(lev) for b in lev[j + 1:]]
        if i + 1 < len(levels):
            gaps += [abs(a - b) for a in lev for b in levels[i + 1]]
        gaps += [abs(t - z) for t in lev for z, m in zip(zs, weights) if m[i]]
    return min(gaps, default=float("inf"))


def poly_from_roots(roots) -> list[complex]:
    """Coefficients (constant first) of the monic polynomial with these roots."""
    out = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k + 1] += c
            nxt[k] -= r * c
        out = nxt
    return out


def tuple_key(levels) -> list[complex]:
    """Coefficients of the tuple y = (y_1..y_N), all levels concatenated."""
    return [c for lev in levels for c in poly_from_roots(lev)]


def same_tuple(a, b, rel: float) -> bool:
    scale = 1.0 + max(abs(v) for v in a + b)
    return len(a) == len(b) and max(abs(u - v) for u, v in zip(a, b)) <= rel * scale


def root_of_unity(n: int) -> complex:
    return cmath.exp(2j * cmath.pi / n)


# ---------------------------------------------------------------------------
# exact scalars: Fraction, or a + b*g with g^2 = p*g + q


class Quad:
    """Element a + b*g of Q(g), g^2 = p*g + q, as a pair of Fractions."""

    __slots__ = ("a", "b", "p", "q")

    def __init__(self, a, b, p, q):
        self.a, self.b, self.p, self.q = Fraction(a), Fraction(b), p, q

    def _lift(self, o):
        if isinstance(o, Quad):
            return o
        return Quad(o, 0, self.p, self.q)

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.a + o.a, self.b + o.b, self.p, self.q)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.p, self.q)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        bb = self.b * o.b
        return Quad(self.a * o.a + self.q * bb,
                    self.a * o.b + self.b * o.a + self.p * bb, self.p, self.q)

    __rmul__ = __mul__

    def inverse(self):
        # (a + b g)((a + p b) - b g) = a^2 + p a b - q b^2
        norm = self.a * self.a + self.p * self.a * self.b - self.q * self.b * self.b
        return Quad((self.a + self.p * self.b) / norm, -self.b / norm, self.p, self.q)

    def __truediv__(self, o):
        return self * self._lift(o).inverse()

    def __rtruediv__(self, o):
        return self._lift(o) * self.inverse()

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a}+{self.b}g)"


# ---------------------------------------------------------------------------
# dense polynomials: lists of scalars, constant term first, no trailing zeros


def trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def padd(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def pneg(f):
    return [-c for c in f]


def psub(f, g):
    return padd(f, pneg(g))


def pscale(f, c):
    return trim([a * c for a in f])


def pmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return trim(out)


def ppow(f, n: int):
    out = [f[0] * 0 + 1] if f else [1]
    for _ in range(n):
        out = pmul(out, f)
    return out


def pderiv(f):
    return trim([c * k for k, c in enumerate(f)][1:])


def pdivmod(f, g):
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv = 1 / g[-1]
    while len(f) >= len(g) and trim(f):
        k = len(f) - len(g)
        c = f[-1] * inv
        q[k] = c
        for i, gi in enumerate(g):
            f[k + i] = f[k + i] - c * gi
        f.pop()
        trim(f)
    return trim(q), f


def pmonic(f):
    return pscale(f, 1 / f[-1])


def pgcd(f, g):
    while g:
        f, g = g, pdivmod(f, g)[1]
    return pmonic(f)


def peq(f, g) -> bool:
    return len(f) == len(g) and all(a == b for a, b in zip(f, g))


def taylor(f, z):
    """Coefficients of f(x + z): the Taylor expansion of f at z."""
    out = []
    lin = [z, 1]
    for c in reversed(f):
        out = padd(pmul(out, lin), [c])
    return out


def wronskian(fs):
    """Wr(f_1..f_k): rows hold derivatives of order k-1 down to 0."""
    k = len(fs)
    table = [[f] for f in fs]
    for col in table:
        for _ in range(k - 1):
            col.append(pderiv(col[-1]))

    def det(rows_left: int, cols: tuple):
        if not cols:
            return [1]
        order = rows_left - 1
        acc = []
        for idx, c in enumerate(cols):
            entry = table[c][order]
            if not entry:
                continue
            term = pmul(entry, det(rows_left - 1, cols[:idx] + cols[idx + 1:]))
            acc = padd(acc, term) if idx % 2 == 0 else psub(acc, term)
        return acc

    return det(k, tuple(range(k)))


def distinct_orders(rows, lowest: bool) -> tuple[int, ...]:
    """Pivot positions after elimination: vanishing orders or degrees of a span."""
    work = [list(r) for r in rows]
    found = []
    while work:
        def lead(r):
            idx = [i for i, c in enumerate(r) if c]
            return (min(idx) if lowest else max(idx)) if idx else None
        leads = [lead(r) for r in work]
        if any(v is None for v in leads):
            raise ValueError("dependent polynomials")
        pick = min(range(len(work)), key=lambda r: leads[r] if lowest else -leads[r])
        j = leads[pick]
        piv = work.pop(pick)
        for r in work:
            if j < len(r) and r[j]:
                c = r[j] / piv[j]
                width = max(len(r), len(piv))
                r[:] = [(r[i] if i < len(r) else 0) - c * (piv[i] if i < len(piv) else 0)
                        for i in range(width)]
        found.append(j)
    return tuple(sorted(found))
