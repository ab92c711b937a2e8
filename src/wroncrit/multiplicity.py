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

Systems live in a thin sparse multivariate wrapper, MPoly; the critical
equations of a master function come as such a system from
bethe.clear_denominators.  The climb reads each generator at p as a dense
Taylor tensor g, where g[a] is the coefficient of (x-p)^a: the terms are
scattered over the bounding box of their exponents and recentred by one
product per variable with the Pascal matrix P[a, k] = C(k, a) p^(k-a).  The
tensor is complex in numeric mode and an object array in exact mode, so
Fraction, ExtElem and complex coefficients share one path; MPoly.shift reads
its result off the same tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Any, Sequence

import numpy as np

from .errors import NotARoot, NotASolution, NotIsolated, WroncritError
from .field import embed_scalar, row_reduce
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
        """Recenter: returns g with g(x) = self(x + p), read off its Taylor tensor.

        A float or complex coefficient or coordinate makes every coefficient
        of g complex, as in local_multiplicity's numeric mode.
        """
        numeric = _is_numeric([self], point)
        polys, point = _embed([self], point) if numeric else ([self], point)
        g = _taylor_tensors(polys, point, numeric)[0]
        return MPoly(self.nvars, dict(zip(np.ndindex(g.shape), g.ravel().tolist())))

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


# -- dense Taylor tensors ----------------------------------------------------------

def _is_numeric(polys, point) -> bool:
    # a float or complex coordinate or coefficient anywhere selects numeric mode
    return (any(isinstance(c, (float, complex)) for c in point)
            or any(isinstance(c, (float, complex)) for f in polys for c in f.terms.values()))


def _embed(polys, point) -> tuple[tuple[MPoly, ...], list[complex]]:
    # a generator whose coefficients are all complex is kept as given
    return (tuple(f if all(isinstance(c, complex) for c in f.terms.values())
                  else f.map_coeffs(embed_scalar) for f in polys),
            [embed_scalar(c) for c in point])


def _pascal(p, d: int, dtype) -> np.ndarray:
    """P[a, k] = C(k, a) p^(k-a): column k holds the coefficients of (x + p)^k."""
    pw = [1]
    for _ in range(d - 1):
        pw.append(pw[-1] * p)
    return np.array([[comb(k, a) * pw[k - a] if a <= k else 0 for k in range(d)]
                     for a in range(d)], dtype=dtype)


def _taylor_tensors(polys, point, numeric: bool) -> list[np.ndarray]:
    """Dense Taylor tensors at ``point``: g[a] is the coefficient of x^a in f(x + p).

    Each generator is scattered over the bounding box of its exponents and
    recentred by one product per variable with the Pascal matrix of that
    coordinate, so the box never grows.  The dtype is complex when
    ``numeric`` (coefficients and point already embedded) and object
    otherwise, so Fraction, ExtElem and complex coefficients share one path.
    """
    dtype = complex if numeric else object
    n = len(point)
    tensors = []
    for f in polys:
        if not f.terms:
            tensors.append(np.zeros((1,) * n, dtype))
            continue
        exps = np.array(list(f.terms), dtype=np.intp)
        g = np.zeros(tuple(exps.max(axis=0) + 1), dtype)
        # row-major flat index of each exponent (the empty sum in 0 variables)
        flat = exps @ (np.array(g.strides, dtype=np.intp) // g.itemsize)
        g.reshape(-1)[flat] = np.fromiter(f.terms.values(), dtype, len(f.terms))
        tensors.append(g)
    for i, p in enumerate(point):
        P = _pascal(p, max(g.shape[i] for g in tensors), dtype)
        for j, g in enumerate(tensors):
            d = g.shape[i]
            if d > 1:  # a box of width 1 meets P[:1, :1] = [[1]]
                tensors[j] = (g.swapaxes(i, -1) @ P[:d, :d].T).swapaxes(i, -1)
    return tensors


# -- dual-space multiplicity -----------------------------------------------------

# The one rank and residual tolerance of numeric dual-space computations, for
# the solver and for `wroncrit mult` alike.  It is looser than the solver's
# residual tolerance (bethe._RESIDUAL_TOL) on purpose: a root of local
# multiplicity m is only located to about machine_eps^(1/m) by any iteration,
# so rank decisions must forgive coordinate errors of that size even though
# the gradient norm itself sits far below _RESIDUAL_TOL.
_MULT_TOL = 1e-6


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


def _nullspace_exact(rows: list, ncols: int) -> list[list]:
    # a free column f gives the vector with 1 at f and -row[f] at each pivot
    pivots, reduced = row_reduce(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v: list = [0] * ncols
        v[fc] = 1
        for pc, row in zip(pivots, reduced):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def _nullspace_numeric(rows: list, ncols: int) -> list[list]:
    if not rows:
        return [list(row) for row in np.eye(ncols, dtype=complex)]
    A = np.array(rows, dtype=complex)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int((s > _MULT_TOL).sum())
    return [list(vh[i].conj()) for i in range(rank, ncols)]


def local_multiplicity(system, point, max_order: int = 20) -> MultiplicityResult:
    """Multiplicity of ``point`` as a zero of ``system``.

    The mode follows the inputs: a float or complex coefficient or
    coordinate anywhere selects "numeric", which embeds everything in
    complex floats with the absolute rank and residual tolerance _MULT_TOL
    after per-generator scaling; otherwise "exact" runs over the coefficient
    field, and its nullspaces are read off field.row_reduce.  A generator
    whose coefficients are all ``complex`` is used as given, so a caller
    that tests many points of one system embeds it once.  Raises
    NotASolution when the point misses the zero set and NotIsolated when the
    dual-space dimensions are still growing at max_order.
    """
    polys = tuple(system.polys) if isinstance(system, MultivariateSystem) else tuple(system)
    if not polys:
        raise WroncritError("empty system has no zero scheme")
    n = polys[0].nvars
    if len(point) != n:
        raise WroncritError(f"point has {len(point)} coordinates, system has {n}")

    numeric = _is_numeric(polys, point)
    if numeric:
        polys, point = _embed(polys, point)
    tensors = _taylor_tensors(polys, point, numeric)
    origin = (0,) * n
    if numeric:
        tensors = [g / (np.abs(g).max() or 1.0) for g in tensors]
        for g in tensors:
            if abs(g[origin]) > _MULT_TOL:
                raise NotASolution(
                    f"residual {abs(g[origin]):.3e} exceeds tolerance {_MULT_TOL:.1e}")
    elif any(g[origin] != 0 for g in tensors):
        raise NotASolution("point does not satisfy the system")

    nullspace = _nullspace_numeric if numeric else _nullspace_exact

    trace = [1]
    basis_prev: list[list] = [[1]]  # D_0 = span{evaluation}, over monomials of degree 0
    mons_prev = _monomials(n, 0)
    for k in range(1, max_order + 1):
        mons = _monomials(n, k)
        index = {m: i for i, m in enumerate(mons)}
        idx_prev = {m: i for i, m in enumerate(mons_prev)}
        # the row of each generator: g[m], or 0 outside its box
        M = np.array(mons, dtype=np.intp)
        rows: list = []
        for g in tensors:
            inside = (M < g.shape).all(axis=1)
            row = np.zeros(len(mons), g.dtype)
            row[inside] = g[tuple(M[inside].T)]
            rows.append(row)
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
            return MultiplicityResult(dim, tuple(trace), k, "numeric" if numeric else "exact",
                                      _MULT_TOL if numeric else None)
        basis_prev, mons_prev = basis, mons
    raise NotIsolated(f"dual space still growing at order {max_order}: trace {tuple(trace)}")


def univariate_multiplicity(f: Poly, p) -> int:
    """Vanishing order of f at p; the one-variable shortcut."""
    p = f.ring.coerce(p)
    m = ord_at(f, p)
    if m == 0:
        raise NotARoot(f"{p} is not a root")
    return m
