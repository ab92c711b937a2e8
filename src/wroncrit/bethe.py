"""Critical points of master functions and their polynomial counterparts.

A master function is determined by level sizes l_1..l_N and, for each marked
point z_s, a weight column m_s(1..N).  Its critical-point system couples the
variables of adjacent levels through simple poles; the same data translates
into a marked-point problem for polynomial spaces (translate_master), whose
intersection number bounds how many critical orbits can exist.

Numeric root finding is multistart Gauss-Newton over the complex field; local
structure (multiplicities, positive-dimensional components) is delegated to
the dual-space machinery of the multiplicity module.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    EmptySector,
    Inadmissible,
    NoCriticalPoints,
    NotASolution,
    NotCertified,
    NotIsolated,
    OvercountWarning,
    UndercountWarning,
    WroncritError,
)
from .field import CC, common_ring, embed_scalar, format_scalar, ring_of
from .multiplicity import MPoly, MultivariateSystem, local_multiplicity
from .polyring import Poly, div_rem, format_poly, wronskian_pair
from .ramification import BasicSituation, exponents_of_ram, ram_from_exponents, validate_basic
from .schubert import intersection_number

# numeric knobs shared by the solver paths
_MAX_GN_ITER = 80
_DEDUP_RADIUS = 1e-6   # relative to coordinate scale
_RESIDUAL_TOL = 1e-12  # largest log-gradient component of an accepted sample
# Rank tolerance of the dual-space computations.  It is looser than
# _RESIDUAL_TOL on purpose: a root of local multiplicity m is only located to
# about machine_eps^(1/m) by any iteration, so rank decisions must forgive
# coordinate errors of that size even though the gradient norm itself sits
# far below _RESIDUAL_TOL.
_MULT_TOL = 1e-6
_SPACE_MATCH = 1e-6
_FAR_FACTOR = 1e3      # samples beyond this multiple of the start radius are recycled


# ---------------------------------------------------------------------------
# input data

@dataclass(frozen=True)
class MasterData:
    """Level sizes l_1..l_N plus weights m_s(i) >= 0 at distinct points z_s.

    ``points`` holds (z, (m_s(1), .., m_s(N))) pairs; z is coerced into
    ``ring``.  Level i carries l_i variables, and its weight polynomial is
    T_i = prod_s (x - z_s)^{m_s(i)}.
    """

    ring: Any
    l: tuple[int, ...]
    points: tuple[tuple[Any, tuple[int, ...]], ...]

    def __post_init__(self):
        l = tuple(int(v) for v in self.l)
        if not l:
            raise DimensionMismatch("need at least one level")
        if any(v < 0 for v in l):
            raise DimensionMismatch(f"negative level size in {l}")
        pts = []
        for z, m in self.points:
            z = self.ring.coerce(z)
            if any(z == seen for seen, _ in pts):
                raise DuplicatePoints(f"marked point {format_scalar(z)} repeats")
            m = tuple(int(v) for v in m)
            if len(m) != len(l):
                raise DimensionMismatch(
                    f"weight column at {format_scalar(z)} has {len(m)} entries, want {len(l)}")
            if any(v < 0 for v in m):
                raise DimensionMismatch(f"negative weight at {format_scalar(z)}")
            pts.append((z, m))
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "points", tuple(pts))

    @property
    def N(self) -> int:
        return len(self.l)

    @cached_property
    def T(self) -> tuple[Poly, ...]:
        """Weight polynomials T_1..T_N (index 0 is T_1)."""
        x = Poly.x(self.ring)
        out = []
        for i in range(self.N):
            f = Poly.one(self.ring)
            for z, m in self.points:
                f = f * (x - z) ** m[i]
            out.append(f)
        return tuple(out)

    def size(self) -> int:
        return sum(self.l)


def _check_shape(point, data: MasterData) -> None:
    if len(point) != data.N:
        raise DimensionMismatch(f"point has {len(point)} levels, data has {data.N}")
    for i, (lev, li) in enumerate(zip(point, data.l), start=1):
        if len(lev) != li:
            raise DimensionMismatch(f"level {i} has {len(lev)} coordinates, want {li}")


def _is_numeric_point(point) -> bool:
    return any(isinstance(t, (float, complex)) for lev in point for t in lev)


def _flat(point) -> list:
    return [t for lev in point for t in lev]


# ---------------------------------------------------------------------------
# the coupling: the one description of the critical equations
#
# Coordinates are flattened level by level; coordinate p = t_ij sits on level
# i and is named t{i}_{j}.  The master function is
#     prod_{p<q} (t_p - t_q)^C_pq / prod_{p,s} (t_p - z_s)^W_ps
# with C_pq = 2 within a level, -1 between adjacent levels, 0 otherwise, and
# W_ps = m_s(level of p).  Every evaluator of the critical equations, exact or
# numeric, reads C and W.

def _layout(l: Sequence[int]) -> list[int]:
    # level index (0-based) of each flattened coordinate
    return [i for i, li in enumerate(l) for _ in range(li)]


def _names(l: Sequence[int]) -> list[str]:
    return [f"t{i}_{j}" for i, li in enumerate(l, start=1) for j in range(1, li + 1)]


def _coupling_matrix(l: Sequence[int]) -> np.ndarray:
    lev = np.array(_layout(l), dtype=int)
    gap = np.abs(lev[:, None] - lev[None, :])
    C = np.where(gap == 0, 2, np.where(gap == 1, -1, 0))
    np.fill_diagonal(C, 0)
    return C


def _weight_matrix(data: MasterData) -> np.ndarray:
    # W[p, s] = m_s(level of coordinate p)
    W = np.array([[m[i] for _, m in data.points] for i in _layout(data.l)], dtype=int)
    return W.reshape(data.size(), len(data.points))


def _embedded_weights(data: MasterData) -> tuple[np.ndarray, np.ndarray]:
    # marked points embedded in CC, and W as floats
    zs = np.array([embed_scalar(z) for z, _ in data.points], dtype=complex)
    return zs, _weight_matrix(data).astype(float)


def _admissible_scalars(point, data: MasterData) -> tuple[list, list, Any, list, list]:
    """(t, z, one, C, W) at an admissible point, as scalars and nested lists.

    t are the flattened coordinates and z the marked points.  A floating
    coordinate anywhere switches t, z and one to machine complex numbers;
    otherwise they are exact elements of data.ring.  Raises DimensionMismatch
    for a point of the wrong shape and Inadmissible at the first collision:
    t_p = t_q with C_pq != 0, or t_p = z_s with W_ps > 0.
    """
    _check_shape(point, data)
    if _is_numeric_point(point):
        ts = [complex(t) for t in _flat(point)]
        zs = [embed_scalar(z) for z, _ in data.points]
        one = 1 + 0j
    else:
        ring = data.ring
        ts = [ring.coerce(t) for t in _flat(point)]
        zs = [z for z, _ in data.points]
        one = ring.one()
    C = _coupling_matrix(data.l).tolist()
    W = _weight_matrix(data).tolist()
    names = _names(data.l)
    for p, t in enumerate(ts):
        for q in range(p + 1, len(ts)):
            if C[p][q] and t == ts[q]:
                raise Inadmissible(f"coordinates {names[p]} and {names[q]} collide")
        for z, w in zip(zs, W[p]):
            if w > 0 and t == z:
                raise Inadmissible(
                    f"coordinate {names[p]} sits on the marked point {format_scalar(z)}")
    return ts, zs, one, C, W


def check_admissible(point, data: MasterData) -> None:
    """Raise Inadmissible naming the first collision the coupling forbids.

    Coordinates of one level or of adjacent levels must differ, and no
    coordinate may sit on a marked point weighted at its level.
    """
    _admissible_scalars(point, data)


def bethe_residual(point, data: MasterData):
    """Gradient of log of the master function, in the shape of ``point``.

    The component at coordinate p is
      r_p = sum_q C_pq/(t_p - t_q) - sum_s W_ps/(t_p - z_s),
    the point term being T_i'(t_p)/T_i(t_p) for the level i of p.  Exact
    scalars stay exact; any floating coordinate switches the whole
    evaluation to complex.
    """
    ts, zs, one, C, W = _admissible_scalars(point, data)
    r = []
    for t, Cp, Wp in zip(ts, C, W):
        acc = one - one
        for u, c in zip(ts, Cp):
            if c:
                acc = acc + (c * one) / (t - u)
        for z, w in zip(zs, Wp):
            if w:
                acc = acc - (w * one) / (t - z)
        r.append(acc)
    it = iter(r)
    return tuple(tuple(next(it) for _ in range(li)) for li in data.l)


def master_value(point, data: MasterData):
    """Value of the master function itself at an admissible point."""
    ts, zs, one, C, W = _admissible_scalars(point, data)
    val = one
    for p, t in enumerate(ts):
        for q in range(p + 1, len(ts)):
            if C[p][q]:
                val = val * (t - ts[q]) ** C[p][q]
        for z, w in zip(zs, W[p]):
            if w:
                val = val / (t - z) ** w
    return val


def clear_denominators(data: MasterData) -> MultivariateSystem:
    """The critical equations as polynomials: F_p = w_p r_p, exactly.

    w_p = T_i(t_p) prod_q (t_p - t_q), over the coordinates q with
    C_pq != 0 and the level i of p, clears the poles of r_p, so
      F_p = T_i(t_p) sum_q C_pq prod_{q' != q} (t_p - t_q')
            - T_i'(t_p) prod_q (t_p - t_q).
    This is the F that the Newton loop solves (_critical_equations),
    equation by equation and sign included.  w_p is a unit at admissible
    points, so local multiplicities there are those of the critical scheme.
    Variables are named t{i}_{j}.
    """
    names = _names(data.l)
    n = len(names)
    C = _coupling_matrix(data.l).tolist()
    var = [MPoly.variable(n, p) for p in range(n)]
    polys = []
    for p, i in enumerate(_layout(data.l)):
        coupled = [(c, var[p] - var[q]) for q, c in enumerate(C[p]) if c]
        # prefix[k] is the product of the first k factors; the sum takes
        # prefix[k] * suffix, where suffix is the product of those after k
        prefix = [MPoly.constant(n, 1)]
        for _, f in coupled:
            prefix.append(prefix[-1] * f)
        acc = MPoly.zero(n)
        suffix = MPoly.constant(n, 1)
        for k in range(len(coupled) - 1, -1, -1):
            c, f = coupled[k]
            acc = acc + c * (prefix[k] * suffix)
            suffix = suffix * f
        T = data.T[i]
        polys.append(MPoly.from_univariate(T, p, n) * acc
                     - MPoly.from_univariate(T.deriv(), p, n) * prefix[-1])
    return MultivariateSystem(tuple(names), tuple(polys))


# ---------------------------------------------------------------------------
# the tuple attached to a critical point

def gamma(point) -> tuple[Poly, ...]:
    """Monic level polynomials y_i = prod_j (x - t_ij) of a point.

    Exact coordinates give exact coefficients; floating coordinates give a
    tuple over the machine complex field.
    """
    coords = [t for lev in point for t in lev]
    if any(isinstance(t, (float, complex)) for t in coords):
        ring = CC
    else:
        ring = common_ring(*coords) if coords else ring_of(Fraction(0))
    return tuple(Poly.from_roots(ring, lev) for lev in point)


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class Certificate:
    """Outcome of an exact or floating check; residuals are per item."""

    kind: str
    mode: str
    residuals: tuple[float, ...]
    tol: float

    def __str__(self):
        body = ", ".join(f"{r:.3e}" for r in self.residuals)
        return f"{self.kind} [{self.mode}] residuals: {body or 'none'} (tol {self.tol:g})"


def _poly_norm(f: Poly) -> float:
    return max((abs(complex(c)) for c in f.coeffs), default=0.0)


def certify_divisibility(ys: Sequence[Poly], data: MasterData, tol: float = 1e-9) -> Certificate:
    """Check y_i | Wr(y_i', T_i y_{i-1} y_{i+1}) for every level.

    Exact rings use exact remainders; over machine complex numbers the
    remainder norm must stay below tol times the dividend norm.  Raises
    NotCertified naming the first level that fails.
    """
    ys = list(ys)
    if len(ys) != data.N:
        raise DimensionMismatch(f"tuple has {len(ys)} levels, data has {data.N}")
    numeric = any(y.ring == CC for y in ys)
    T = data.T
    if numeric:
        ys = [y.to_ring(CC) for y in ys]
        T = [f.to_ring(CC) for f in T]
    one = Poly.one(ys[0].ring)
    resid = []
    for i in range(len(ys)):
        lo = ys[i - 1] if i > 0 else one
        hi = ys[i + 1] if i + 1 < len(ys) else one
        w = wronskian_pair(ys[i].deriv(), T[i] * lo * hi)
        _, rem = div_rem(w, ys[i])
        if numeric:
            bound = tol * (1.0 + _poly_norm(w))
            r = _poly_norm(rem)
            if r > bound:
                raise NotCertified(
                    f"level {i + 1}: remainder norm {r:.3e} exceeds {bound:.3e}")
            resid.append(r)
        else:
            if not rem.is_zero():
                raise NotCertified(f"level {i + 1}: nonzero remainder {format_poly(rem)}")
            resid.append(0.0)
    return Certificate("divisibility", "numeric" if numeric else "exact", tuple(resid), tol)


def certify_critical(data: MasterData, point, tol: float = 1e-9) -> Certificate:
    """Check that a given admissible point solves the critical equations.

    Exact coordinates must give an exactly zero gradient; floating ones must
    get within tol.  Raises Inadmissible or NotCertified.
    """
    res = bethe_residual(point, data)
    vals = [t for lev in res for t in lev]
    if _is_numeric_point(point):
        worst = max((abs(complex(v)) for v in vals), default=0.0)
        if worst > tol:
            raise NotCertified(f"gradient norm {worst:.3e} exceeds tol {tol:g}")
        return Certificate("critical point", "numeric", (worst,), tol)
    for lev_i, lev in enumerate(res, start=1):
        for j, v in enumerate(lev, start=1):
            if v != data.ring.zero():
                raise NotCertified(
                    f"gradient component ({lev_i},{j}) is {format_scalar(v)}, not 0")
    return Certificate("critical point", "exact", (0.0,) * bool(vals), tol)


# ---------------------------------------------------------------------------
# sectors: labels at infinity distributed over the levels

@dataclass(frozen=True)
class SectorSpec:
    """Strictly decreasing exponent labels and which level draws which.

    ``w`` is a bijection of 1..N+1: the i-th step of the filtration picks up
    the label ``labels[w[i-1] - 1]``.
    """

    labels: tuple[int, ...]
    w: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(c) for c in self.labels)
        w = tuple(int(v) for v in self.w)
        if sorted(w) != list(range(1, len(labels) + 1)):
            raise DimensionMismatch(f"{w} is not a bijection of 1..{len(labels)}")
        if any(labels[i] <= labels[i + 1] for i in range(len(labels) - 1)):
            raise DimensionMismatch(f"labels {labels} are not strictly decreasing")
        if labels and labels[-1] < 0:
            raise DimensionMismatch(f"negative label in {labels}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "w", w)


def sector_lengths(c: Sequence[int], w: Sequence[int], K: Sequence[Poly]) -> tuple[int, ...]:
    """Level sizes induced by handing out labels c in the order w.

    ``c`` must be strictly decreasing, ``w`` a bijection of 1..N+1 and ``K``
    the divisor ladder K_0..K_{N+1} of the situation.  Returns (l_1..l_N);
    raises EmptySector when some level size comes out negative, and
    DimensionMismatch when the data are inconsistent (the (N+1)-st size must
    close at zero).
    """
    spec = SectorSpec(tuple(c), tuple(w))
    N = len(spec.labels) - 1
    if len(K) != N + 2:
        raise DimensionMismatch(f"need K_0..K_{N + 1}, got {len(K)} entries")
    out = []
    acc = 0
    for i in range(1, N + 2):
        acc += spec.labels[spec.w[i - 1] - 1]
        li = acc - i * (i - 1) // 2 - K[i].degree()
        if i <= N:
            if li < 0:
                raise EmptySector(f"level size l_{i} = {li} < 0 for w = {spec.w}")
            out.append(li)
        elif li != 0:
            raise DimensionMismatch(
                f"labels and divisor ladder disagree: closing size is {li}, not 0")
    return tuple(out)


def translate_master(data: MasterData) -> tuple[BasicSituation, SectorSpec]:
    """Marked-point problem and sector solved by the critical points of ``data``.

    The filtration label of level i is
        c_i = i - 1 + l_i - l_{i-1} + sum_{j<i} sum_s m_s(j)
    (l_0 = l_{N+1} = 0).  Negative or colliding labels mean the master
    function has no critical points at all; that raises NoCriticalPoints.
    """
    N = data.N
    l = (0,) + data.l + (0,)
    c = []
    acc = 0
    for i in range(1, N + 2):
        ci = i - 1 + l[i] - l[i - 1] + acc
        if ci < 0:
            raise NoCriticalPoints(f"label c_{i} = {ci} is negative")
        c.append(ci)
        acc += sum(m[i - 1] for _, m in data.points) if i <= N else 0
    if len(set(c)) != len(c):
        raise NoCriticalPoints(f"labels {tuple(c)} collide")

    d = max(c)
    pts = []
    for z, m in data.points:
        a = tuple(sum(m[N - el] for el in range(j, N + 1)) for j in range(1, N + 2))
        pts.append((z, a))
    a_inf = ram_from_exponents(sorted(c), d, at_infinity=True)
    basic = validate_basic(data.ring, d, N, pts, a_inf)

    labels = tuple(sorted(c, reverse=True))
    w = tuple(1 + sum(1 for cj in c if cj > ci) for ci in c)
    sector = SectorSpec(labels, w)
    if sector_lengths(labels, w, basic.K) != data.l:
        raise WroncritError("internal: sector sizes fail to reproduce the input")
    return basic, sector


def master_from_sector(basic: BasicSituation, w: Sequence[int]) -> MasterData:
    """Master-function data whose critical points feed the sector ``w``.

    Inverse of translate_master on its image: level sizes come from
    sector_lengths, weights from the orders of T_i at the marked points.
    """
    e_inf = exponents_of_ram(basic.infinity, basic.d, at_infinity=True)
    labels = tuple(reversed(e_inf))
    l = sector_lengths(labels, tuple(w), basic.K)
    pts = []
    for z, a in basic.points:
        m = tuple(a[basic.N - i] - a[basic.N + 1 - i] for i in range(1, basic.N + 1))
        pts.append((z, m))
    return MasterData(basic.ring, l, tuple(pts))


def sectors_of(basic: BasicSituation) -> list[SectorSpec]:
    """All sectors with nonnegative level sizes, identity first."""
    e_inf = exponents_of_ram(basic.infinity, basic.d, at_infinity=True)
    labels = tuple(reversed(e_inf))
    out = []
    for w in itertools.permutations(range(1, basic.N + 2)):
        try:
            sector_lengths(labels, w, basic.K)
        except EmptySector:
            continue
        out.append(SectorSpec(labels, w))
    return out


# ---------------------------------------------------------------------------
# numeric solving

@dataclass(frozen=True)
class CriticalOrbit:
    """One solution of the critical equations up to reordering within levels.

    ``point`` is the canonical representative (each level sorted by real then
    imaginary part), ``residual`` the max gradient norm there, ``tuple_y``
    the monic level polynomials.  ``multiplicity`` is the local intersection
    multiplicity when the orbit is isolated; for a positive-dimensional
    family it is the multiplicity transversal to the component and
    ``dimension`` the observed local dimension.  ``hits`` counts converged
    starts that landed here.
    """

    point: tuple[tuple[Any, ...], ...]
    residual: float
    multiplicity: int | None
    tuple_y: tuple[Poly, ...]
    isolated: bool = True
    dimension: int = 0
    hits: int = 1


def _critical_equations(t: np.ndarray, C: np.ndarray, zs: np.ndarray,
                        W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, J, r) of the critical equations at a batch of points t, shape (S, L).

    r_p = sum_q C_pq/(t_p - t_q) - sum_s W_ps/(t_p - z_s) is the log-gradient
    (bethe_residual).  F_p = w_p r_p with w_p = prod_s (t_p - z_s)^W_ps
    prod_{C_pq != 0} (t_p - t_q), the multiplier clear_denominators clears,
    so F is the cleared system.  Its Jacobian is
    J = diag(w) (J_r + r (d log w)^T).  All three come from the reciprocal
    differences 1/(t_p - t_q) and 1/(t_p - z_s); a coordinate on a collision
    makes its row non-finite.
    """
    L = t.shape[1]
    A = C != 0
    D = t[:, :, None] - t[:, None, :]
    Dz = t[:, :, None] - zs[None, None, :]
    E = np.divide(1.0, D, out=np.zeros_like(D), where=A)
    Ez = np.divide(1.0, Dz, out=np.zeros_like(Dz), where=W > 0)
    WEz = W * Ez
    r = (C * E).sum(axis=2) - WEz.sum(axis=2)
    w = np.where(A, D, 1.0).prod(axis=2) * (Dz ** W).prod(axis=2)
    diag = np.arange(L)
    Jr = C * E * E
    Jr[:, diag, diag] = (WEz * Ez).sum(axis=2) - Jr.sum(axis=2)
    G = -E
    G[:, diag, diag] = WEz.sum(axis=2) + E.sum(axis=2)
    J = w[:, :, None] * (Jr + r[:, :, None] * G)
    return w * r, J, r


def _collision_gap(t: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray) -> np.ndarray:
    # distance of each point in the batch to the nearest collision check_admissible forbids
    D = np.abs(t[:, :, None] - t[:, None, :])[:, C != 0]
    Dz = np.abs(t[:, :, None] - zs[None, None, :])[:, W > 0]
    return np.concatenate([D, Dz], axis=1).min(axis=1, initial=np.inf)


def _near_collision(t: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mask of the points in the batch that solve_critical drops as collisions.

    A point lies in the collision neighbourhood when its collision gap is
    below _DEDUP_RADIUS relative to its scale 1 + max|t|.  A zero of
    F = w r there is a zero of w, not a critical point.
    """
    return _collision_gap(t, C, zs, W) < _DEDUP_RADIUS * (1.0 + np.abs(t).max(axis=1))


def _accepted(pts: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray,
              far_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask, residual) of the Newton end points that are critical samples.

    A sample is kept when its largest log-gradient component is finite and
    below _RESIDUAL_TOL, it lies inside the disc of radius far_cut, and it is
    not near a collision.  F also vanishes on collisions (coordinates of one
    level or of adjacent levels meeting, a coordinate on a marked point
    weighted at its level), where w = 0.  The residual r usually blows up
    there, but its pole terms can cancel, so such samples are dropped by
    distance (_near_collision), the same test by which _newton retires them.
    """
    res = np.abs(_critical_equations(pts, C, zs, W)[2]).max(axis=1)
    size = np.abs(pts).max(axis=1)
    good = (np.isfinite(res) & (res < _RESIDUAL_TOL) & (size < far_cut)
            & ~_near_collision(pts, C, zs, W))
    return good, res


def _orbit_key(row: np.ndarray, l: Sequence[int]) -> np.ndarray:
    """Coefficients of the tuple y = gamma(t), levels concatenated.

    Level i contributes e_1..e_{l_i}, the elementary symmetric functions of
    its coordinates: the coefficients of y_i up to alternating sign, so a
    level with one coordinate contributes that coordinate.  The key does
    not depend on the order of the coordinates, which is what makes it the
    identity of an orbit.
    """
    out = []
    pos = 0
    for li in l:
        coeffs = np.atleast_1d(np.poly(row[pos:pos + li]))[1:]
        out.append(coeffs * (-1.0) ** np.arange(1, li + 1))
        pos += li
    return np.concatenate(out)


def _sort_key(key: np.ndarray) -> list[tuple[float, float]]:
    # rounded, so that samples of one orbit sort alike
    return [(round(v.real, 8), round(v.imag, 8)) for v in key]


def _flush(x: float) -> float:
    # Newton can drive the imaginary part of a real orbit into underflow
    return 0.0 if abs(x) < sys.float_info.min else x


def _canonical(row: np.ndarray, l: Sequence[int]) -> tuple[tuple[complex, ...], ...]:
    out = []
    pos = 0
    for li in l:
        lev = sorted((complex(_flush(v.real), _flush(v.imag)) for v in row[pos:pos + li]),
                     key=lambda v: (v.real, v.imag))
        out.append(tuple(lev))
        pos += li
    return tuple(out)


def _rand_point(rng: np.random.Generator, L: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=L))
    ang = rng.uniform(size=L) * 2 * np.pi
    return r * np.exp(1j * ang)


def _newton(pts: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray,
            rng: np.random.Generator, radius: float, far_cut: float) -> np.ndarray:
    """Pseudoinverse Gauss-Newton on the cleared equations from a batch of starts.

    Runs up to _MAX_GN_ITER steps on pts, shape (S, L), in place.  A start
    whose F or J is not finite (a coordinate exactly on a collision) takes a
    zero step; a start that leaves the finite disc of radius far_cut is
    redrawn and stays live.  Two kinds of start stop iterating:
    - a start whose step leaves it bitwise unchanged sits at a fixed point
      of the iteration: its next input, and so every later step, is the same;
    - a start whose new point lies in the collision neighbourhood
      (_near_collision) is running onto an extra zero of F, where w = 0: a
      point the filter of solve_critical (_accepted) rejects.
    Only the live starts are evaluated; pinv cuts off per matrix, so a
    start's path does not depend on which others share its batch.  Every
    sample the filter accepts, and every draw from rng, is bitwise that of
    stepping every start every time, as long as no start that enters the
    collision neighbourhood would have left it again to be accepted or
    redrawn.  None does on the benchmark's verify inputs (seeds 1 to 10).
    A retired start's own end point differs from the full loop's, but the
    filter rejects both.
    """
    L = pts.shape[1]
    live = np.ones(len(pts), dtype=bool)
    for _ in range(_MAX_GN_ITER):
        idx = np.nonzero(live)[0]
        if not len(idx):
            break
        cur = pts[idx]
        F, J, _ = _critical_equations(cur, C, zs, W)
        ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
        step = np.zeros_like(cur)
        step[ok] = -(np.linalg.pinv(J[ok]) @ F[ok][:, :, None])[:, :, 0]
        step[~np.isfinite(step).all(axis=1)] = 0.0
        new = cur + step
        pts[idx] = new
        fixed = (new.view(np.uint64) == cur.view(np.uint64)).all(axis=1)
        live[idx[fixed | _near_collision(new, C, zs, W)]] = False
        bad = idx[~np.isfinite(new).all(axis=1) | (np.abs(new).max(axis=1) > far_cut)]
        for s in bad:
            pts[s] = _rand_point(rng, L, radius)
        live[bad] = True
    return pts


# -- induced space of a sample, used to group samples on one component --------

def _wronskian_solve_lstsq(y: Poly, rhs: Poly) -> Poly:
    # least-squares particular solution g of Wr(y, g) = rhs over CC
    dg = max(rhs.degree() - max(y.degree(), 1) + 1, 0) + 1
    cols = []
    for k in range(dg + 1):
        w = wronskian_pair(y, Poly.monomial(CC, 1.0, k))
        cols.append([complex(w.coeff(m)) for m in range(rhs.degree() + dg + 2)])
    A = np.array(cols, dtype=complex).T
    b = np.array([complex(rhs.coeff(m)) for m in range(A.shape[0])], dtype=complex)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return Poly(CC, list(sol))


def induced_space(ys: Sequence[Poly], data: MasterData) -> np.ndarray:
    """Orthonormal coefficient basis of the space generated by a tuple.

    Mirrors the reproduction cascade numerically: for each target size the
    tuple is remutated from scratch in directions i..1 and the final first
    entry joins the basis.  Only spans matter here, so least-squares
    particular solutions are fine.
    """
    T = [f.to_ring(CC) for f in data.T]
    ys = [y.to_ring(CC) for y in ys]
    one = Poly.one(CC)
    us = [ys[0]]
    for i in range(1, data.N + 1):
        cur = list(ys)
        for j in range(i, 0, -1):
            lo = cur[j - 2] if j >= 2 else one
            hi = cur[j] if j < data.N else one
            g = _wronskian_solve_lstsq(cur[j - 1], T[j - 1] * lo * hi)
            cur[j - 1] = g
        us.append(cur[0])
    deg = max(u.degree() for u in us)
    A = np.array([[complex(u.coeff(k)) for k in range(deg + 1)] for u in us], dtype=complex).T
    Q, _ = np.linalg.qr(A)
    return Q[:, : len(us)]


def _same_space(Q1: np.ndarray, Q2: np.ndarray) -> bool:
    if Q1.shape != Q2.shape:
        return False
    s = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    return bool(s.min() > 1 - _SPACE_MATCH)


def component_multiplicity(system: MultivariateSystem, sample: Sequence[complex],
                           rng: np.random.Generator, max_order: int = 12) -> tuple[int, int]:
    """(local dimension, transversal multiplicity) at a non-isolated sample.

    Cuts the solution set by random affine hyperplanes through the sample,
    one more at a time, until the sliced system has an isolated root there.
    Valid at a generic smooth sample of the component.
    """
    n = system.nvars
    polys = list(system.polys)
    for dim in range(1, n + 1):
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs /= np.linalg.norm(coeffs)
        const = -sum(c * t for c, t in zip(coeffs, sample))
        terms = {tuple(0 for _ in range(n)): complex(const)}
        for k in range(n):
            e = tuple(1 if q == k else 0 for q in range(n))
            terms[e] = complex(coeffs[k])
        polys.append(MPoly(n, terms))
        sliced = MultivariateSystem(system.names, tuple(polys))
        try:
            res = local_multiplicity(sliced, tuple(sample), tol=_MULT_TOL,
                                     max_order=max_order)
        except NotIsolated:
            continue
        return dim, res.multiplicity
    raise NotIsolated("slicing never produced an isolated root")


# -- the solver ----------------------------------------------------------------

def solve_critical(data: MasterData, starts: int = 200, seed: int = 0) -> list[CriticalOrbit]:
    """Multistart search for all critical orbits of a master function.

    Deterministic for fixed (data, starts, seed).  Starts are drawn
    uniformly from a disc of radius 2(max|z_s| + 1); Gauss-Newton steps use
    the pseudoinverse so degenerate and positive-dimensional solutions are
    reached as well, at a linear rate.  Samples near a collision are zeros
    of the cleared equations only and are dropped; Newton stops iterating a
    start once it gets there (_newton).  Samples whose tuples y = gamma(t)
    agree to 1e-6 relative are one orbit.  Each orbit gets a local multiplicity;
    samples where the dual spaces keep growing are grouped by their induced
    polynomial space and reported once per component with a transversal
    multiplicity.  A warning is emitted when the total multiplicity found
    misses the intersection number of the translated problem.
    """
    try:
        basic, _sector = translate_master(data)
        target = intersection_number(basic)
    except NoCriticalPoints:
        return []

    L = data.size()
    if L == 0:
        one = Poly.one(data.ring)
        orbit = CriticalOrbit(tuple(() for _ in range(data.N)), 0.0, 1,
                              tuple(one for _ in range(data.N)))
        if target != 1:
            warnings.warn(f"empty critical point carries multiplicity 1 but the "
                          f"intersection number is {target}", UndercountWarning,
                          stacklevel=2)
        return [orbit]

    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    radius = 2.0 * (max((abs(z) for z in zs), default=0.0) + 1.0)
    rng = np.random.default_rng(seed)
    pts = np.array([_rand_point(rng, L, radius) for _ in range(starts)],
                   dtype=complex).reshape(starts, L)

    # Newton runs on the cleared equations F_p = w_p r_p, evaluated in
    # factored form by _critical_equations: the raw log-gradient r has a
    # spurious attracting zero at infinity that swallows almost every start,
    # while F has honest basins.  Runaway slots (no basin, or walking out
    # along a noncompact solution curve) are recycled with fresh draws, so
    # the search effectively covers |t| up to _FAR_FACTOR * radius.
    far_cut = _FAR_FACTOR * radius
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pts = _newton(pts, C, zs, W, rng, radius, far_cut)
        good, res = _accepted(pts, C, zs, W, far_cut)

    # orbits are identified by the tuple y = gamma(t), not by coordinates
    keys = {s: _orbit_key(pts[s], data.l) for s in np.nonzero(good)[0]}
    clusters: list[list] = []  # [key, rep_point, residual, hits]
    for s in sorted(keys, key=lambda s: _sort_key(keys[s])):
        key = keys[s]
        kscale = 1.0 + np.abs(key).max()
        for cl in clusters:
            if np.abs(key - cl[0]).max() < _DEDUP_RADIUS * kscale:
                cl[2] = min(cl[2], float(res[s]))
                cl[3] += 1
                break
        else:
            clusters.append([key, _canonical(pts[s], data.l), float(res[s]), 1])

    # embedded once: every local_multiplicity call below runs in "numeric" mode
    system = clear_denominators(data).map_coeffs(CC.coerce)
    max_order = max(4, target + 1)
    orbits: list[CriticalOrbit] = []
    loose: list[list] = []  # one entry per component: [Q, point, residual, hits]
    for _, point, rv, hits in clusters:
        flat = tuple(_flat(point))
        ys = gamma(point)
        # The points of one sector that generate one space form one connected
        # Schubert cell, so a sample whose space is a known component's lies
        # on that component and is not isolated: it joins without a dual-space
        # climb.  Generic inputs never reach a component, so skip the space.
        Q = induced_space(ys, data) if loose else None
        home = next((cl for cl in loose if _same_space(cl[0], Q)), None)
        if home is None:
            try:
                m = local_multiplicity(system, flat, tol=_MULT_TOL, max_order=max_order)
                orbits.append(CriticalOrbit(point, rv, m.multiplicity, ys, hits=hits))
            except NotASolution:
                pass  # true critical point at a scale the cleared system cannot hold
            except NotIsolated:
                loose.append([induced_space(ys, data) if Q is None else Q, point, rv, hits])
            continue
        # keep the most central sample: best conditioned representative
        if max(abs(v) for v in flat) < max(abs(v) for v in _flat(home[1])):
            home[1] = point
        home[2] = min(home[2], rv)
        home[3] += hits

    for Q, point, rv, hits in loose:
        dim, m = component_multiplicity(system, _flat(point), rng, max_order=max_order)
        orbits.append(CriticalOrbit(point, rv, m, gamma(point),
                                    isolated=False, dimension=dim, hits=hits))

    orbits.sort(key=lambda o: _sort_key(_orbit_key(np.array(_flat(o.point)), data.l)))
    total = sum(o.multiplicity or 0 for o in orbits)
    if total < target:
        warnings.warn(f"found total multiplicity {total} < intersection number {target}; "
                      f"try more starts", UndercountWarning, stacklevel=2)
    elif total > target:
        warnings.warn(f"found total multiplicity {total} > intersection number {target}; "
                      f"some orbits are spurious or overcounted", OvercountWarning,
                      stacklevel=2)
    return orbits
