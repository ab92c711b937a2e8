"""Local multiplicity of an isolated zero of a polynomial system.

The multiplicity of a point p in the zero scheme of f_1..f_r is the
dimension of the local quotient ring, computed here through its Macaulay
dual: the space of differential functionals at p, spanned by "coefficient
of (x-p)^alpha" functionals, that annihilate every element of the ideal.
The dual space is grown order by order; each step keeps only functionals
whose derivative shifts stay inside the previous step (that containment is
equivalent to annihilating all multiples of the generators, via
L[x_i g] = s_i(L)[g]).  The dimension stabilizes exactly when the point is
isolated, and the stable dimension is the multiplicity.

Systems live in a thin sparse multivariate wrapper.  Clearing denominators
of master-function critical equations produces such systems; the cleared
multiplier is a unit at every admissible point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Iterator, Sequence

from .errors import NotARoot, NotASolution, NotIsolated, WroncritError
from .field import embed_scalar
from .polyring import Poly, ord_at


# -- sparse multivariate polynomials -------------------------------------------

class MPoly:
    """Sparse polynomial in n variables: exponent tuple -> coefficient.

    Coefficients are whatever supports ring arithmetic (Fraction, extension
    elements, complex); they are never coerced, so keep a system homogeneous
    in coefficient type.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], Any] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise WroncritError(f"bad exponent {exp} for {self.nvars} variables")
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def from_univariate(cls, f: Poly, var: int, nvars: int) -> "MPoly":
        terms = {}
        for k, c in enumerate(f.coeffs):
            if c != 0:
                exp = [0] * nvars
                exp[var] = k
                terms[tuple(exp)] = c
        return cls(nvars, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def _binop(self, other, sign):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise WroncritError("variable rosters differ")
            out = dict(self.terms)
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + sign * c
            return MPoly(self.nvars, out)
        return self._binop(MPoly.constant(self.nvars, other), sign)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise WroncritError("variable rosters differ")
            out: dict[tuple[int, ...], Any] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return MPoly(self.nvars, out)
        return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def deriv(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MPoly(self.nvars, out)

    def eval(self, point: Sequence) -> Any:
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                for _ in range(k):
                    v = v * point[i]
            total = total + v
        return total

    def shift(self, point: Sequence) -> "MPoly":
        """Recenter: returns g with g(x) = self(x + p)."""
        out: dict[tuple[int, ...], Any] = {}
        for e, c in self.terms.items():
            # expand prod_i (x_i + p_i)^{e_i}
            partial = {(): c}
            for i, k in enumerate(e):
                nxt: dict[tuple[int, ...], Any] = {}
                pw = [1]
                for _ in range(k):
                    pw.append(pw[-1] * point[i])
                for stub, cc in partial.items():
                    for a in range(k + 1):
                        term = cc * comb(k, a) * pw[k - a]
                        key = stub + (a,)
                        nxt[key] = nxt.get(key, 0) + term
                partial = nxt
            for key, cc in partial.items():
                out[key] = out.get(key, 0) + cc
        return MPoly(self.nvars, out)

    def map_coeffs(self, fn) -> "MPoly":
        return MPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, MPoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms!r})"


@dataclass(frozen=True)
class MultivariateSystem:
    """Generators plus the variable roster naming each coordinate."""

    names: tuple[str, ...]
    polys: tuple[MPoly, ...]

    def __post_init__(self):
        for f in self.polys:
            if f.nvars != len(self.names):
                raise WroncritError("polynomial references variables outside the roster")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def map_coeffs(self, fn) -> "MultivariateSystem":
        return MultivariateSystem(self.names, tuple(f.map_coeffs(fn) for f in self.polys))


# -- clearing denominators of critical equations --------------------------------

def _level_layout(l: Sequence[int]) -> tuple[list[str], list[list[int]]]:
    names: list[str] = []
    levels: list[list[int]] = []
    for i, li in enumerate(l, start=1):
        idxs = []
        for j in range(1, li + 1):
            idxs.append(len(names))
            names.append(f"t{i}_{j}")
        levels.append(idxs)
    return names, levels


def clear_denominators(data) -> MultivariateSystem:
    """Polynomial form of the critical equations of a master function.

    Each logarithmic-derivative equation is multiplied by the product of its
    simple-pole denominators; the pole at the marked points contributes the
    derivative of the level weight polynomial.  Every equation is sign
    normalized so its lexicographically leading coefficient has positive
    rational part.  The multiplier T_i(t_p) prod_q (t_p - t_q), over the
    coordinates q of the same and adjacent levels, is a unit at admissible
    points, so local multiplicities are unchanged there.
    """
    names, levels = _level_layout(data.l)
    n = len(names)
    polys = []
    for i in range(1, len(levels) + 1):
        Ti = data.T[i - 1]
        for j in levels[i - 1]:
            tj = MPoly.variable(n, j)
            own = [MPoly.variable(n, k) for k in levels[i - 1] if k != j]
            adj = []
            for lvl in (i - 1, i + 1):
                if 1 <= lvl <= len(levels):
                    adj.extend(MPoly.variable(n, k) for k in levels[lvl - 1])
            t_here = MPoly.from_univariate(Ti, j, n)
            t_deriv = MPoly.from_univariate(Ti.deriv(), j, n)
            own_f = [tj - v for v in own]
            adj_f = [tj - v for v in adj]

            def prod(factors):
                out = MPoly.constant(n, data.ring.one())
                for f in factors:
                    out = out * f
                return out

            eq = MPoly.zero(n)
            for k in range(len(own_f)):
                eq = eq + 2 * (t_here * prod(own_f[:k] + own_f[k + 1:]) * prod(adj_f))
            for k in range(len(adj_f)):
                eq = eq - t_here * prod(own_f) * prod(adj_f[:k] + adj_f[k + 1:])
            eq = eq - t_deriv * prod(own_f) * prod(adj_f)
            polys.append(_sign_normalize(eq))
    return MultivariateSystem(tuple(names), tuple(polys))


def _sign_normalize(f: MPoly) -> MPoly:
    if f.is_zero():
        return f
    lead = f.terms[max(f.terms)]
    flip = False
    if isinstance(lead, Fraction) or isinstance(lead, int):
        flip = lead < 0
    elif isinstance(lead, complex) or isinstance(lead, float):
        flip = (lead.real if isinstance(lead, complex) else lead) < 0
    else:
        r = getattr(lead, "is_rational", None)
        if r is not None and lead.is_rational():
            flip = lead.coeffs[0] < 0
    return -f if flip else f


# -- dual-space multiplicity -----------------------------------------------------

@dataclass(frozen=True)
class MultiplicityResult:
    multiplicity: int
    trace: tuple[int, ...]
    order: int
    mode: str
    tol: float | None


def _monomials(n: int, k: int) -> list[tuple[int, ...]]:
    # all exponent tuples of total degree <= k, graded then lexicographic
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for t in range(k + 1):
        block: list[tuple[int, ...]] = []

        def rec(prefix: list[int], left: int, pos: int):
            if pos == n - 1:
                block.append(tuple(prefix) + (left,))
                return
            for v in range(left + 1):
                prefix.append(v)
                rec(prefix, left - v, pos + 1)
                prefix.pop()

        rec([], t, 0)
        out.extend(sorted(block))
    return out


def _nullspace_exact(rows: list[list], ncols: int) -> list[list]:
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v: list = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def _nullspace_numeric(rows: list[list], ncols: int, tol: float) -> list[list]:
    import numpy as np

    if not rows:
        return [list(row) for row in np.eye(ncols, dtype=complex)]
    A = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int((s > tol).sum())
    return [list(vh[i].conj()) for i in range(rank, ncols)]


def _to_numeric(v) -> complex:
    try:
        return complex(v)
    except TypeError:
        return embed_scalar(v)


def local_multiplicity(system, point, mode: str = "auto", tol: float = 1e-8,
                       max_order: int = 20) -> MultiplicityResult:
    """Multiplicity of ``point`` as a zero of ``system``.

    mode "exact" runs fraction-free over the coefficient field, "numeric"
    embeds everything in complex floats with an absolute rank tolerance
    after per-generator scaling, "auto" picks by coefficient type.  Raises
    NotASolution when the point misses the zero set and NotIsolated when the
    dual-space dimensions are still growing at max_order.
    """
    polys = tuple(system.polys) if isinstance(system, MultivariateSystem) else tuple(system)
    if not polys:
        raise WroncritError("empty system has no zero scheme")
    n = polys[0].nvars
    if len(point) != n:
        raise WroncritError(f"point has {len(point)} coordinates, system has {n}")

    if mode == "auto":
        sample = [c for f in polys for c in f.terms.values()] + list(point)
        numeric = any(isinstance(c, (float, complex)) for c in sample)
        mode = "numeric" if numeric else "exact"
    if mode not in ("exact", "numeric"):
        raise WroncritError(f"unknown mode {mode!r}")

    if mode == "numeric":
        point = [_to_numeric(c) for c in point]
        polys = tuple(f.map_coeffs(_to_numeric) for f in polys)

    shifted = [f.shift(point) for f in polys]
    scales = None
    if mode == "numeric":
        scales = [max((abs(c) for c in f.terms.values()), default=1.0) or 1.0
                  for f in shifted]
        shifted = [f.map_coeffs(lambda c, s=s: c / s) for f, s in zip(shifted, scales)]
        for f in shifted:
            c0 = f.terms.get((0,) * n, 0)
            if abs(c0) > tol:
                raise NotASolution(f"residual {abs(c0):.3e} exceeds tolerance {tol:.1e}")
    else:
        for f in shifted:
            if f.terms.get((0,) * n, 0) != 0:
                raise NotASolution("point does not satisfy the system")

    nullspace = (_nullspace_exact if mode == "exact"
                 else lambda rows, m: _nullspace_numeric(rows, m, tol))

    trace = [1]
    basis_prev: list[list] = [[1]]  # D_0 = span{evaluation}, over monomials of degree 0
    mons_prev = _monomials(n, 0)
    for k in range(1, max_order + 1):
        mons = _monomials(n, k)
        index = {m: i for i, m in enumerate(mons)}
        idx_prev = {m: i for i, m in enumerate(mons_prev)}
        rows: list[list] = []
        for f in shifted:
            rows.append([f.terms.get(m, 0) for m in mons])
        # closedness: the i-th derivative shift of any new functional must lie
        # in span(basis_prev); impose left-annihilator(basis_prev) o s_i = 0
        cols_prev = len(mons_prev)
        left = nullspace([list(b) for b in basis_prev], cols_prev)
        for i in range(n):
            for y in left:
                row = [0] * len(mons)
                for m, col in index.items():
                    if m[i] > 0:
                        m2 = list(m)
                        m2[i] -= 1
                        row[col] = y[idx_prev[tuple(m2)]]
                if any(v != 0 for v in row):
                    rows.append(row)
        basis = nullspace(rows, len(mons))
        dim = len(basis)
        trace.append(dim)
        if dim <= trace[-2]:
            return MultiplicityResult(dim, tuple(trace), k, mode,
                                      tol if mode == "numeric" else None)
        basis_prev, mons_prev = basis, mons
    raise NotIsolated(f"dual space still growing at order {max_order}: trace {tuple(trace)}")


def univariate_multiplicity(f: Poly, p) -> int:
    """Vanishing order of f at p; the one-variable shortcut."""
    p = f.ring.coerce(p)
    if not f.is_zero() and f.eval(p) != 0:
        raise NotARoot(f"{p} is not a root")
    return ord_at(f, p)
