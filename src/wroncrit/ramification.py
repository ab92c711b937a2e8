"""Vanishing data of polynomial subspaces at marked points.

A subspace V of dimension N+1 inside the polynomials of degree at most d
meets every point z in a full flag: there are exactly N+1 distinct orders
of vanishing at z among the nonzero elements of V.  Sorted increasingly
these are the *exponents* of V at z; subtracting the staircase 0,1,...,N
(in the right order) turns them into a weakly decreasing *ramification
sequence*.  At infinity the same game is played with degrees instead of
vanishing orders.

A *basic situation* fixes d and N, finitely many distinct marked points
each carrying a ramification sequence, and a sequence at infinity, with
total weight (N+1)(d-N).  From this data we derive the polynomials K_i
and T_i and the level dimensions l_i that drive everything downstream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import (
    CheckFailed,
    DependentBasis,
    DimensionMismatch,
    DuplicatePoints,
    NegativeLength,
    NotRealizable,
)
from .field import format_scalar, row_reduce
# validate_basic divides nothing; exact_div stays bound here because the
# benchmark's tracer wraps this module's binding by name
from .polyring import Poly, exact_div, ord_at, wronskian  # noqa: F401


# -- ramification sequences and exponent sets --------------------------------

def as_int(v, what: str) -> int:
    """v as an int; a value that is not an integer (1.9, "2") is refused, not truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise DimensionMismatch(f"{what} must be an integer, got {v!r}") from None


def check_ram_sequence(a: Sequence[int], d: int, N: int) -> tuple[int, ...]:
    """Validate a ramification sequence for ambient (d, N); return it as a tuple."""
    a = tuple(as_int(v, "ramification entry") for v in a)
    if len(a) != N + 1:
        raise DimensionMismatch(
            f"ramification sequence has {len(a)} entries, expected N+1 = {N + 1}")
    if a[-1] < 0 or any(a[i] < a[i + 1] for i in range(N)):
        raise NotRealizable(f"sequence {a} is not weakly decreasing and non-negative")
    if a[0] > d - N:
        raise NotRealizable(f"leading entry {a[0]} exceeds d - N = {d - N}")
    return a


def exponents_of_ram(a: Sequence[int], d: int, *, at_infinity: bool = False) -> tuple[int, ...]:
    """Exponent set of a ramification sequence, sorted increasingly.

    At a finite point the exponents are N+1-i+a_i (i = 1..N+1); at infinity
    they are d-(N+1)+i-a_i.
    """
    N = len(a) - 1
    a = check_ram_sequence(a, d, N)
    if at_infinity:
        eps = [d - N + i - a[i] for i in range(N + 1)]
    else:
        eps = [N - i + a[i] for i in range(N + 1)]
    return tuple(sorted(eps))


def ram_from_exponents(e: Sequence[int], d: int, *, at_infinity: bool = False) -> tuple[int, ...]:
    """Invert exponents_of_ram.  The location changes the formula, so it must be told."""
    eps = tuple(int(v) for v in e)
    N = len(eps) - 1
    if len(set(eps)) != len(eps) or any(eps[i] >= eps[i + 1] for i in range(N)):
        raise NotRealizable(f"exponents {eps} are not strictly increasing")
    if eps[0] < 0 or eps[-1] > d:
        raise NotRealizable(f"exponents {eps} leave the range 0..{d}")
    if at_infinity:
        a = [d - N + i - eps[i] for i in range(N + 1)]
    else:
        a = [eps[N - i] - (N - i) for i in range(N + 1)]
    return check_ram_sequence(a, d, N)


def infinity_labels(l: Sequence[int], weight_degrees: Sequence[int]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Labels at infinity of level sizes l_1..l_N, and the rank of each.

    ``weight_degrees`` is (deg T_0, ..., deg T_N); for master data deg T_0
    is 0.  The label of level i is
        c_i = i - 1 + l_i - l_{i-1} + deg T_0 + ... + deg T_{i-1}
    (l_0 = l_{N+1} = 0), and w_i = 1 + #{j : c_j > c_i} ranks c_i in the
    descending sort.  The labels are not checked: callers decide what a
    negative or colliding label means.
    """
    if len(weight_degrees) != len(l) + 1:
        raise DimensionMismatch(
            f"{len(l)} level sizes need {len(l) + 1} weight degrees, got {len(weight_degrees)}")
    ls = (0, *l, 0)
    c = tuple(i - 1 + ls[i] - ls[i - 1] + sum(weight_degrees[:i]) for i in range(1, len(ls)))
    w = tuple(1 + sum(1 for cj in c if cj > ci) for ci in c)
    return c, w


# -- exponents of an explicit basis ------------------------------------------

def _coeff_rows(polys: Sequence[Poly]) -> list[list]:
    ring = polys[0].ring
    width = max(p.degree() for p in polys) + 1
    rows = []
    for p in polys:
        if p.ring != ring:
            raise DependentBasis("basis elements live over different rings")
        row = list(p.coeffs) + [ring.zero()] * (width - len(p.coeffs))
        rows.append(row)
    return rows


def _independent(rows: list[list]) -> tuple[list[int], list[list]]:
    # row_reduce of the coefficient rows of a basis, which must have full rank
    pivots, reduced = row_reduce(rows)
    if len(pivots) < len(rows):
        raise DependentBasis("input polynomials are linearly dependent")
    return pivots, reduced


def _adapted_at(basis: Sequence[Poly], z) -> tuple[list[int], list[list]]:
    # shift so z becomes the origin; the lowest nonzero index of each reduced
    # row is its pivot, so the pivots are the distinct vanishing orders
    return _independent(_coeff_rows([p.shift(z) for p in basis]))


def exponents_at(basis: Sequence[Poly], z) -> tuple[int, ...]:
    """Exponents of span(basis) at the finite point z.

    Shifts the basis to z and row reduces the coefficient vectors; the pivot
    columns are the distinct vanishing orders.
    """
    return tuple(_adapted_at(basis, z)[0])


def exponents_at_infinity(basis: Sequence[Poly]) -> tuple[int, ...]:
    """Exponents of span(basis) at infinity: the distinct degrees, sorted.

    They are the pivot columns of the coefficient rows read from the top
    degree down.
    """
    rows = _coeff_rows(basis)
    top = len(rows[0]) - 1
    pivots, _ = _independent([row[::-1] for row in rows])
    return tuple(top - j for j in reversed(pivots))


# -- basic situations ----------------------------------------------------------

@dataclass(frozen=True)
class BasicSituation:
    """Validated marked-point data together with its derived polynomials.

    ``points`` holds (z, a(z)) pairs over ``ring``; ``infinity`` is a(inf).
    ``K`` has entries K_0..K_{N+1}, ``T`` entries T_0..T_N, and ``lengths``
    the level dimensions l_1..l_N.  Build instances through validate_basic.
    """

    ring: Any
    d: int
    N: int
    points: tuple[tuple[Any, tuple[int, ...]], ...]
    infinity: tuple[int, ...]
    K: tuple[Poly, ...]
    T: tuple[Poly, ...]
    lengths: tuple[int, ...]


def _tail_sum(a: Sequence[int], i: int) -> int:
    # sum of the i smallest entries (the sequence is weakly decreasing)
    return sum(a[len(a) - i:]) if i > 0 else 0


def validate_basic(ring, d: int, N: int, points, infinity) -> BasicSituation:
    """Check all invariants of the raw data and attach K_i, T_i, l_i.

    With e_i(z) the sum of the i smallest entries of a(z) (e_0 = 0),
    K_i = prod_z (x - z)^{e_i(z)}, T_0 = K_1 and T_i = K_{i+1} K_{i-1} / K_i^2,
    whose order e_{i+1}(z) + e_{i-1}(z) - 2 e_i(z) at z is >= 0 because a(z)
    is decreasing.  Each is built from its orders at the points
    (Poly.from_roots), with no product or division of polynomials.

    points: iterable of (z, sequence); z is coerced into ring.  Raises
    DuplicatePoints, DimensionMismatch (total weight is off), NotRealizable
    (a sequence is malformed) or NegativeLength.
    """
    d, N = as_int(d, "d"), as_int(N, "N")
    if N < 1 or d < N:
        raise DimensionMismatch(f"need 1 <= N <= d, got N = {N}, d = {d}")
    if not getattr(ring, "is_field", False):
        raise NotRealizable("basic situations need field scalars")

    pts = []
    for z, a in points:
        z = ring.coerce(z)
        if any(z == seen for seen, _ in pts):
            raise DuplicatePoints(f"marked point {format_scalar(z)} repeats")
        pts.append((z, check_ram_sequence(a, d, N)))
    a_inf = check_ram_sequence(infinity, d, N)

    total = sum(sum(a) for _, a in pts) + sum(a_inf)
    if total != (N + 1) * (d - N):
        raise DimensionMismatch(
            f"total weight {total} != (N+1)(d-N) = {(N + 1) * (d - N)}")

    # e[s][i] = e_i(z_s), the sum of the i smallest entries of a(z_s)
    e = [[_tail_sum(a, i) for i in range(N + 2)] for _, a in pts]

    def with_orders(orders) -> Poly:
        # prod_s (x - z_s)^orders[s]
        return Poly.from_roots(ring, [z for (z, _), k in zip(pts, orders) for _ in range(k)])

    K = tuple(with_orders([es[i] for es in e]) for i in range(N + 2))
    T = (K[1], *(with_orders([es[i + 1] + es[i - 1] - 2 * es[i] for es in e])
                 for i in range(1, N + 1)))

    lengths = []
    for i in range(1, N + 1):
        li = i * (d - i + 1) - _tail_sum(a_inf, i) - sum(_tail_sum(a, i) for _, a in pts)
        if li < 0:
            raise NegativeLength(f"l_{i} = {li} < 0")
        lengths.append(li)

    return BasicSituation(ring, d, N, tuple(pts), a_inf, K, T, tuple(lengths))


# -- consistency of an explicit space against a basic situation ----------------

def wronskian_ram_check(basis: Sequence[Poly], data: BasicSituation) -> tuple[str, ...]:
    """Confirm that span(basis) realizes the vanishing data of ``data``.

    Checks, in order: the Wronskian vanishes to order |a(z)| at every marked
    point and has the complementary degree; the exponent sets at every marked
    point and at infinity match the prescribed sequences; and the vanishing
    orders of the partial Wronskians of the order-adapted flag refine this,
    ord_z Wr(E_i) = e_1(z)+...+e_i(z) - i(i-1)/2.  Returns one line per
    verified fact; raises CheckFailed naming the offending point otherwise.
    """
    basis = [p.to_ring(data.ring) for p in basis]
    if len(basis) != data.N + 1:
        raise DimensionMismatch(
            f"basis has {len(basis)} elements, expected {data.N + 1}")
    if any(p.degree() > data.d for p in basis):
        raise CheckFailed(f"basis degree exceeds d = {data.d}")
    W = wronskian(basis)
    if W.is_zero():
        raise DependentBasis("basis is linearly dependent")

    lines = []
    for z, a in data.points:
        want = sum(a)
        got = ord_at(W, z)
        if got != want:
            raise CheckFailed(
                f"Wr vanishes to order {got} at z = {format_scalar(z)}, expected {want}")
        lines.append(f"ord Wr at {format_scalar(z)} = {want}")

    want_deg = (data.N + 1) * (data.d - data.N) - sum(data.infinity)
    if W.degree() != want_deg:
        raise CheckFailed(f"deg Wr = {W.degree()} at infinity, expected {want_deg}")
    lines.append(f"deg Wr = {want_deg}")

    eps_inf = exponents_at_infinity(basis)
    want_inf = exponents_of_ram(data.infinity, data.d, at_infinity=True)
    if eps_inf != want_inf:
        raise CheckFailed(
            f"exponents {eps_inf} at infinity, expected {want_inf}")
    lines.append(f"exponents at infinity = {fmt_exps(eps_inf)}")

    for z, a in data.points:
        pivots, adapted = _adapted_at(basis, z)
        eps = tuple(pivots)
        want_eps = exponents_of_ram(a, data.d)
        if eps != want_eps:
            raise CheckFailed(
                f"exponents {eps} at z = {format_scalar(z)}, expected {want_eps}")
        for i in range(1, data.N + 2):
            flag_w = wronskian([Poly(data.ring, row) for row in adapted[:i]])
            want = sum(eps[:i]) - i * (i - 1) // 2
            got = ord_at(flag_w, data.ring.zero())
            if got != want:
                raise CheckFailed(
                    f"ord Wr(E_{i}) = {got} at z = {format_scalar(z)}, expected {want}")
        lines.append(f"exponents at {format_scalar(z)} = {fmt_exps(eps)}, flag orders match")
    return tuple(lines)


def fmt_exps(eps: Sequence[int]) -> str:
    return "{" + ", ".join(str(e) for e in eps) + "}"
