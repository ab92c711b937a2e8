"""Critical points of master functions and their polynomial counterparts.

A master function is determined by level sizes l_1..l_N and, for each marked
point z_s, a weight column m_s(1..N).  Its critical-point system couples the
variables of adjacent levels through simple poles; the same data translates
into a marked-point problem for polynomial spaces (translate_master), whose
intersection number bounds how many critical orbits can exist.

Each space V behind a critical orbit has one population, its flag variety,
and each sector of the problem sees one Schubert cell of it (Mukhin and
Varchenko).  In the point sector w = (N+1, .., 1) that cell is a point, so
V gives one isolated orbit there, and only that sector is solved.  When
every nonzero weight is omega_1 the orbits are the joint eigenvalues of the
Gaudin Hamiltonians (the gaudin module, the Bethe route), whose points take
one Gauss-Newton step (_polish); other weights are solved by multistart,
Gauss-Newton run to a fixed point (_newton).  Each step is over the complex
field and inverts the Jacobian by LU, and a row whose condition number
fails a guard takes the pseudoinverse instead, each row on its own.  At
real marked points the Bethe algebra has a simple spectrum (Mukhin,
Tarasov and Varchenko), so on the Bethe route each accepted eigen-point is
one simple orbit, with no grouping and no multiplicity test.  Elsewhere
samples are grouped by their tuples, an orbit whose Hessian of log Phi is
nonsingular is simple (_hessian_sigma; that Hessian is the norm of the
Bethe vector, Mukhin and Varchenko), and only the others climb the dual
spaces of the multiplicity module on the cleared system, which is built
only for them.  Every other sector is built from the spaces
(build_sector): a generic flag of V in the sector's cell has partial
Wronskians whose quotients by K_i are the tuple of a point on a component
of the cell's dimension, which carries the multiplicity of V's
point-sector orbit.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from . import gaudin
from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    EmptySector,
    Inadmissible,
    NotASolution,
    NotCertified,
    NotIsolated,
    NotRealizable,
    WroncritError,
    ZeroPolynomial,
)
from .field import CC, common_ring, embed_scalar, format_scalar, ring_of
from .multiplicity import _MULT_TOL, MPoly, MultivariateSystem, local_multiplicity
from .polyring import Poly, div_rem, format_poly, partial_wronskians, wronskian_pair
from .ramification import (BasicSituation, as_int, exponents_of_ram, infinity_labels,
                           ram_from_exponents, validate_basic)
from .schubert import intersection_number

# numeric knobs shared by the solver paths
_MAX_GN_ITER = 80
_DEDUP_RADIUS = 1e-6   # relative to coordinate scale
_RESIDUAL_TOL = 1e-12  # largest log-gradient component of an accepted sample
# A Newton step keeps its LU inverse below this 1-norm condition number and
# takes the pseudoinverse above it (_gn_step)
_LU_COND = 1e12
_FAR_FACTOR = 1e3      # the filter drops samples beyond this multiple of the start radius
_CERT_TOL = 1e-9       # certification tolerance, relative to the dividend's norm
_SLICE_MAX_ORDER = 12  # dual-space order bound of a sliced component's isolated root


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
        l = tuple(as_int(v, "level size") for v in self.l)
        if not l:
            raise DimensionMismatch("need at least one level")
        if any(v < 0 for v in l):
            raise DimensionMismatch(f"negative level size in {l}")
        pts = []
        for z, m in self.points:
            z = self.ring.coerce(z)
            if any(z == seen for seen, _ in pts):
                raise DuplicatePoints(f"marked point {format_scalar(z)} repeats")
            m = tuple(as_int(v, "weight") for v in m)
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
        """Weight polynomials T_1..T_N (index 0 is T_1), read off the weights."""
        return tuple(Poly.from_roots(self.ring, [z for z, m in self.points for _ in range(m[i])])
                     for i in range(self.N))

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

    def __str__(self):
        body = ", ".join(f"{r:.3e}" for r in self.residuals)
        return f"{self.kind} [{self.mode}] residuals: {body or 'none'} (tol {_CERT_TOL:g})"


def certify_divisibility(ys: Sequence[Poly], data: MasterData) -> Certificate:
    """Check y_i | Wr(y_i', T_i y_{i-1} y_{i+1}) for every level of one tuple.

    The certificate of certify_tuples([ys], data); raises the error that
    refuses it: NotCertified naming the first level that fails, or
    DimensionMismatch for a tuple of the wrong length.
    """
    out = certify_tuples([ys], data)[0]
    if isinstance(out, WroncritError):
        raise out
    return out


def certify_tuples(tuples: Sequence[Sequence[Poly]],
                   data: MasterData) -> list[Certificate | WroncritError]:
    """The divisibility certificate of each tuple, or the error that refuses it.

    Each tuple must satisfy y_i | Wr(y_i', T_i y_{i-1} y_{i+1}) at every
    level.  A tuple over exact rings takes exact remainders, and any nonzero
    one refuses it.  A tuple with a coefficient over CC is checked in
    floating point: at level i the remainder norm must stay below
    _CERT_TOL (1 + ||w||), w the dividend and ||.|| the largest coefficient
    modulus.  The floating tuples are checked together in numpy's complex
    arithmetic, one stack per degree pattern (_certify_stacked), with each
    T_i embedded once; a residual is that of the Poly loop over CC up to
    rounding.  A refused tuple gets NotCertified naming its first failing
    level (or the error its arithmetic raised); one of the wrong length
    gets DimensionMismatch.
    """
    tuples = [list(ys) for ys in tuples]
    out: list = [None] * len(tuples)
    stacks: dict[tuple[int, ...], list[int]] = {}
    for k, ys in enumerate(tuples):
        if len(ys) != data.N:
            out[k] = DimensionMismatch(f"tuple has {len(ys)} levels, data has {data.N}")
        elif any(y.ring == CC for y in ys):
            stacks.setdefault(tuple(y.degree() for y in ys), []).append(k)
        else:
            try:
                out[k] = _certify_exact(ys, data.T)
            except WroncritError as e:
                out[k] = e
    if stacks:
        T = [_coeff_rows([f]) for f in data.T]
        for idx in stacks.values():
            for k, cert in zip(idx, _certify_stacked([tuples[k] for k in idx], T)):
                out[k] = cert
    return out


def _certify_exact(ys: list[Poly], T: Sequence[Poly]) -> Certificate:
    one = Poly.one(ys[0].ring)
    for i in range(len(ys)):
        lo = ys[i - 1] if i > 0 else one
        hi = ys[i + 1] if i + 1 < len(ys) else one
        _, rem = div_rem(wronskian_pair(ys[i].deriv(), T[i] * lo * hi), ys[i])
        if not rem.is_zero():
            raise NotCertified(f"level {i + 1}: nonzero remainder {format_poly(rem)}")
    return Certificate("divisibility", "exact", (0.0,) * len(ys))


# -- stacked coefficient rows: row s of an (S, n) array holds the coefficients
# of a polynomial of degree n - 1 (n = 0 for the zero polynomial), lowest
# first, in numpy's complex arithmetic.

def _coeff_rows(polys: Sequence[Poly]) -> np.ndarray:
    # polynomials of one degree, embedded in CC once
    return np.array([[CC.coerce(c) for c in f.coeffs] for f in polys],
                    dtype=complex).reshape(len(polys), -1)


def _mul_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # row-wise products; out[k] sums a_i b_(k-i) over ascending i, as Poly does
    if not A.shape[1] or not B.shape[1]:
        return np.zeros((max(len(A), len(B)), 0), dtype=complex)
    out = np.zeros((max(len(A), len(B)), A.shape[1] + B.shape[1] - 1), dtype=complex)
    for i in range(A.shape[1]):
        out[:, i:i + B.shape[1]] += A[:, i, None] * B
    return out


def _deriv_rows(A: np.ndarray) -> np.ndarray:
    return A[:, 1:] * np.arange(1, A.shape[1])


def _sub_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = max(A.shape[1], B.shape[1])
    out = np.zeros((len(A), n), dtype=complex)
    out[:, :A.shape[1]] = A
    out[:, :B.shape[1]] -= B
    return out


def _rem_rows(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Remainders of the rows of F by the rows of Y (nonzero).

    Synthetic division from the top: each quotient term is the top of the
    running remainder times 1 / lead of its divisor, and the term times the
    whole divisor leaves the remainder.
    """
    rem = F.copy()
    dy = Y.shape[1] - 1
    inv = 1 / Y[:, -1]
    for k in range(rem.shape[1] - dy - 1, -1, -1):
        rem[:, k:k + dy + 1] -= (rem[:, k + dy] * inv)[:, None] * Y
    return rem[:, :dy]


def _certify_stacked(tuples: Sequence[Sequence[Poly]],
                     T: Sequence[np.ndarray]) -> list[Certificate | WroncritError]:
    """certify_tuples on floating tuples of one degree pattern, level by level.

    Level i of every tuple is one row of a coefficient stack, so
    Wr(y_i', T_i y_{i-1} y_{i+1}) = y_i'' g - y_i' g' with g = T_i y_{i-1}
    y_{i+1} and its remainder by y_i are formed for all tuples at once,
    by the products and the division of the Poly loop of _certify_exact
    in numpy's complex arithmetic, so a residual is the loop's up to
    rounding.  T holds the embedded rows of T_1..T_N.
    """
    ys = [_coeff_rows([t[i] for t in tuples]) for i in range(len(tuples[0]))]
    errors: list[WroncritError | None] = [None] * len(tuples)
    resid: list[list[float]] = [[] for _ in tuples]
    for i, y in enumerate(ys):
        if not y.shape[1]:  # div_rem refuses the zero divisor
            errors = [e or ZeroPolynomial("division by the zero polynomial") for e in errors]
            break
        g = T[i]
        if i > 0:
            g = _mul_rows(g, ys[i - 1])
        if i + 1 < len(ys):
            g = _mul_rows(g, ys[i + 1])
        d1 = _deriv_rows(y)
        w = _sub_rows(_mul_rows(_deriv_rows(d1), g), _mul_rows(d1, _deriv_rows(g)))
        rem_norm = np.abs(_rem_rows(w, y)).max(axis=1, initial=0.0).tolist()
        w_norm = np.abs(w).max(axis=1, initial=0.0).tolist()
        for s, (r, wn) in enumerate(zip(rem_norm, w_norm)):
            if errors[s] is not None:
                continue
            bound = _CERT_TOL * (1.0 + wn)
            if not r <= bound:
                errors[s] = NotCertified(
                    f"level {i + 1}: remainder norm {r:.3e} exceeds {bound:.3e}")
            resid[s].append(r)
    return [e or Certificate("divisibility", "numeric", tuple(r))
            for e, r in zip(errors, resid)]


def certify_critical(data: MasterData, point) -> Certificate:
    """Check that a given admissible point solves the critical equations.

    Exact coordinates must give an exactly zero gradient; floating ones must
    get within _CERT_TOL.  Raises Inadmissible or NotCertified.
    """
    res = bethe_residual(point, data)
    vals = [t for lev in res for t in lev]
    if _is_numeric_point(point):
        worst = max((abs(complex(v)) for v in vals), default=0.0)
        if worst > _CERT_TOL:
            raise NotCertified(f"gradient norm {worst:.3e} exceeds tol {_CERT_TOL:g}")
        return Certificate("critical point", "numeric", (worst,))
    for lev_i, lev in enumerate(res, start=1):
        for j, v in enumerate(lev, start=1):
            if v != data.ring.zero():
                raise NotCertified(
                    f"gradient component ({lev_i},{j}) is {format_scalar(v)}, not 0")
    return Certificate("critical point", "exact", (0.0,) * bool(vals))


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


def sector_lengths(c: Sequence[int], w: Sequence[int], K_degrees: Sequence[int]) -> tuple[int, ...]:
    """Level sizes induced by handing out labels c in the order w.

    ``c`` must be strictly decreasing, ``w`` a bijection of 1..N+1 and
    ``K_degrees`` the degrees of the divisor ladder K_0..K_{N+1} of the
    situation (BasicSituation.K_degrees).  Returns (l_1..l_N);
    raises EmptySector when some level size comes out negative, and
    DimensionMismatch when the data are inconsistent (the (N+1)-st size must
    close at zero).
    """
    spec = SectorSpec(tuple(c), tuple(w))
    N = len(spec.labels) - 1
    if len(K_degrees) != N + 2:
        raise DimensionMismatch(f"need deg K_0..deg K_{N + 1}, got {len(K_degrees)} entries")
    out = []
    acc = 0
    for i in range(1, N + 2):
        acc += spec.labels[spec.w[i - 1] - 1]
        li = acc - i * (i - 1) // 2 - K_degrees[i]
        if i <= N:
            if li < 0:
                raise EmptySector(f"level size l_{i} = {li} < 0 for w = {spec.w}")
            out.append(li)
        elif li != 0:
            raise DimensionMismatch(
                f"labels and divisor ladder disagree: closing size is {li}, not 0")
    return tuple(out)


def _sector_of(data: MasterData) -> SectorSpec:
    """The sector of ``data``: its labels at infinity, descending, and their ranks w.

    The labels are infinity_labels of the level sizes and the weight degrees
    deg T_j = sum_s m_s(j), with deg T_0 = 0.  Negative or colliding labels
    mean that no space realizes the data, so the master function has no
    critical points at all; that raises NotRealizable.
    """
    weights = (0, *(sum(m[j] for _, m in data.points) for j in range(data.N)))
    c, w = infinity_labels(data.l, weights)
    for i, ci in enumerate(c, start=1):
        if ci < 0:
            raise NotRealizable(f"label c_{i} = {ci} is negative")
    if len(set(c)) != len(c):
        raise NotRealizable(f"labels {c} collide")
    return SectorSpec(tuple(sorted(c, reverse=True)), w)


def translate_master(data: MasterData) -> tuple[BasicSituation, SectorSpec]:
    """Marked-point problem and sector solved by the critical points of ``data``.

    The sector comes from the labels at infinity (_sector_of), and the
    basic situation has d the largest label.  Both raise NotRealizable when
    no space realizes the data: _sector_of on negative or colliding labels,
    validate_basic when a marked point's sequence does not fit that d.  Then
    the master function has no critical point.
    """
    N = data.N
    sector = _sector_of(data)
    d = sector.labels[0]
    pts = []
    for z, m in data.points:
        a = tuple(sum(m[N - el] for el in range(j, N + 1)) for j in range(1, N + 2))
        pts.append((z, a))
    a_inf = ram_from_exponents(sector.labels[::-1], d, at_infinity=True)
    basic = validate_basic(data.ring, d, N, pts, a_inf)
    if sector_lengths(sector.labels, sector.w, basic.K_degrees) != data.l:
        raise WroncritError("internal: sector sizes fail to reproduce the input")
    return basic, sector


def master_from_sector(basic: BasicSituation, w: Sequence[int]) -> MasterData:
    """Master-function data whose critical points feed the sector ``w``.

    Inverse of translate_master on its image: level sizes come from
    sector_lengths, weights from the orders of T_i at the marked points.
    Every sector of ``basic`` has its T_1..T_N, so the data's T is
    basic.T[1:], built once on ``basic`` for all of them.
    """
    e_inf = exponents_of_ram(basic.infinity, basic.d, at_infinity=True)
    labels = tuple(reversed(e_inf))
    l = sector_lengths(labels, tuple(w), basic.K_degrees)
    pts = []
    for z, a in basic.points:
        m = tuple(a[basic.N - i] - a[basic.N + 1 - i] for i in range(1, basic.N + 1))
        pts.append((z, m))
    data = MasterData(basic.ring, l, tuple(pts))
    # m_s(i) is the order of basic.T[i] at z_s, so this is the tuple MasterData.T builds
    object.__setattr__(data, "T", basic.T[1:])
    return data


def sectors_of(basic: BasicSituation) -> list[SectorSpec]:
    """All sectors with nonnegative level sizes, identity first."""
    e_inf = exponents_of_ram(basic.infinity, basic.d, at_infinity=True)
    labels = tuple(reversed(e_inf))
    degrees = basic.K_degrees
    out = []
    for w in itertools.permutations(range(1, basic.N + 2)):
        try:
            sector_lengths(labels, w, degrees)
        except EmptySector:
            continue
        out.append(SectorSpec(labels, w))
    return out


# ---------------------------------------------------------------------------
# numeric solving

@dataclass(frozen=True)
class CriticalOrbit:
    """One solution of the critical equations up to reordering within levels.

    ``point`` is the canonical representative (each level sorted by rounded
    real, then imaginary part), ``residual`` the max gradient norm there,
    ``tuple_y`` the monic level polynomials.  ``multiplicity`` is an int:
    the local intersection multiplicity when the orbit is isolated; for a
    positive-dimensional family it is the multiplicity transversal to the
    component, and ``dimension`` is the dimension of the family.  ``hits``
    counts the samples that landed here: converged starts on the
    multistart, the size of the cluster of joint eigenvalues on the Bethe
    route (1 at real marked points).  A built sector keeps the hits of its
    point-sector orbit.
    """

    point: tuple[tuple[Any, ...], ...]
    residual: float
    multiplicity: int
    tuple_y: tuple[Poly, ...]
    dimension: int = 0
    hits: int = 1

    @property
    def isolated(self) -> bool:
        return self.dimension == 0


def _reciprocals(t: np.ndarray, C: np.ndarray, zs: np.ndarray,
                 W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D, Dz, E, Ez) of a batch of points t, shape (S, L).

    D = t_p - t_q and Dz = t_p - z_s are the differences, E = 1/D where
    C_pq != 0 and Ez = 1/Dz where W_ps > 0 their reciprocals, zero where
    the coupling does not reach; a coordinate on a collision makes its row
    non-finite.
    """
    D = t[:, :, None] - t[:, None, :]
    Dz = t[:, :, None] - zs[None, None, :]
    E = np.divide(1.0, D, out=np.zeros_like(D), where=C != 0)
    Ez = np.divide(1.0, Dz, out=np.zeros_like(Dz), where=W > 0)
    return D, Dz, E, Ez


def _log_gradient(C: np.ndarray, E: np.ndarray, WEz: np.ndarray) -> np.ndarray:
    # r_p = sum_q C_pq/(t_p - t_q) - sum_s W_ps/(t_p - z_s), the log-gradient
    return (C * E).sum(axis=2) - WEz.sum(axis=2)


def _log_hessian(C: np.ndarray, E: np.ndarray, WEz: np.ndarray, Ez: np.ndarray) -> np.ndarray:
    # J_r = dr_p/dt_q, the Hessian of log Phi: C_pq/(t_p - t_q)^2 off the
    # diagonal, sum_s W_ps/(t_p - z_s)^2 - sum_q C_pq/(t_p - t_q)^2 on it
    Jr = C * E * E
    diag = np.arange(Jr.shape[1])
    Jr[:, diag, diag] = (WEz * Ez).sum(axis=2) - Jr.sum(axis=2)
    return Jr


def _critical_equations(t: np.ndarray, C: np.ndarray, zs: np.ndarray,
                        W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, J, r) of the critical equations at a batch of points t, shape (S, L).

    r_p = sum_q C_pq/(t_p - t_q) - sum_s W_ps/(t_p - z_s) is the log-gradient
    (bethe_residual).  F_p = w_p r_p with w_p = prod_s (t_p - z_s)^W_ps
    prod_{C_pq != 0} (t_p - t_q), the multiplier clear_denominators clears,
    so F is the cleared system.  Its Jacobian is
    J = diag(w) (J_r + r (d log w)^T), J_r the Hessian of log Phi
    (_log_hessian).  All three come from the reciprocal differences
    (_reciprocals); a coordinate on a collision makes its row non-finite.
    """
    L = t.shape[1]
    D, Dz, E, Ez = _reciprocals(t, C, zs, W)
    WEz = W * Ez
    r = _log_gradient(C, E, WEz)
    w = np.where(C != 0, D, 1.0).prod(axis=2) * (Dz ** W).prod(axis=2)
    diag = np.arange(L)
    G = -E
    G[:, diag, diag] = WEz.sum(axis=2) + E.sum(axis=2)
    J = w[:, :, None] * (_log_hessian(C, E, WEz, Ez) + r[:, :, None] * G)
    return w * r, J, r


def _hessian_sigma(t: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Smallest singular value of the scaled Hessian of log Phi, per point of the batch.

    Row p of J_r (_log_hessian) is divided by its term mass
      m_p = sum_s W_ps/|t_p - z_s|^2 + sum_q |C_pq|/|t_p - t_q|^2,
    the size of the terms it sums, so the value is 0 exactly where J_r is
    singular and does not depend on the scale of the coordinates.  A row
    scaled by its own largest entry would read 1 for every single
    coordinate, a double root included.  A coordinate no pole reaches has
    m_p = 0 and keeps a zero row.
    """
    _, _, E, Ez = _reciprocals(t, C, zs, W)
    mass = (np.abs(C) * np.abs(E) ** 2).sum(axis=2) + (W * np.abs(Ez) ** 2).sum(axis=2)
    Jr = _log_hessian(C, E, W * Ez, Ez)
    scaled = np.divide(Jr, mass[:, :, None], out=np.zeros_like(Jr), where=mass[:, :, None] > 0)
    return np.linalg.svd(scaled, compute_uv=False)[:, -1]


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


def _log_residual(pts: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray) -> np.ndarray:
    # the largest log-gradient component of each point of the batch, without F and J
    _, _, E, Ez = _reciprocals(pts, C, zs, W)
    return np.abs(_log_gradient(C, E, W * Ez)).max(axis=1)


def _accepted(pts: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray,
              far_cut: float, res: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(mask, residual) of the Newton end points that are critical samples.

    A sample is kept when its largest log-gradient component is finite and
    below _RESIDUAL_TOL, it lies inside the disc of radius far_cut, and it is
    not near a collision.  ``res`` is that component per row when the
    caller has it (_polish returns it for the rows it returns); otherwise,
    on the multistart, the equations are evaluated here.  F also vanishes
    on collisions (coordinates of one level or of adjacent levels meeting, a
    coordinate on a marked point weighted at its level), where w = 0.  The
    residual r usually blows up there, but its pole terms can cancel, so
    such samples are dropped by distance (_near_collision), the same test
    by which _newton retires them.
    """
    if res is None:
        res = _log_residual(pts, C, zs, W)
    size = np.abs(pts).max(axis=1)
    good = (np.isfinite(res) & (res < _RESIDUAL_TOL) & (size < far_cut)
            & ~_near_collision(pts, C, zs, W))
    return good, res


def _orbit_keys(pts: np.ndarray, l: Sequence[int]) -> np.ndarray:
    """Coefficients of the tuples y = gamma(t) of a batch of points, shape (S, L).

    Row s concatenates, level by level, e_1..e_{l_i}, the elementary
    symmetric functions of the coordinates of level i in row s: the
    coefficients of y_i up to alternating sign, so a level with one
    coordinate contributes that coordinate.  A key does not depend on the
    order of the coordinates, which is what makes it the identity of an
    orbit.  One pass per coordinate updates every row,
    e_k <- e_k + t e_{k-1}.
    """
    out = []
    pos = 0
    for li in l:
        e = np.zeros((len(pts), li + 1), dtype=complex)
        e[:, 0] = 1.0
        for j in range(li):
            e[:, 1:j + 2] += pts[:, pos + j, None] * e[:, :j + 1]
        out.append(e[:, 1:])
        pos += li
    return np.hstack(out)


def _sort_key(key) -> list[tuple[float, float]]:
    # rounded, so that samples of one orbit sort alike; key holds Python complex
    return [(round(v.real, 8), round(v.imag, 8)) for v in key]


def _flush(x: float) -> float:
    # Newton can drive the imaginary part of a real orbit into underflow
    return 0.0 if abs(x) < sys.float_info.min else x


def _canonical(row: np.ndarray, l: Sequence[int]) -> tuple[tuple[complex, ...], ...]:
    # each level sorted by its rounded key, so that a conjugate pair whose real
    # parts differ by rounding prints in one order
    out = []
    pos = 0
    for li in l:
        lev = sorted((complex(_flush(v.real), _flush(v.imag)) for v in row[pos:pos + li]),
                     key=lambda v: _sort_key([v]))
        out.append(tuple(lev))
        pos += li
    return tuple(out)


def _rand_points(rng: np.random.Generator, starts: int, L: int, radius: float) -> np.ndarray:
    # uniform in the disc of ``radius``, per coordinate: for each start its L
    # radii are drawn before its L angles
    u = rng.uniform(size=(starts, 2, L))
    return radius * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])


def _gn_step(F: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Gauss-Newton steps -J^+ F of a batch, F of shape (S, L), J (S, L, L).

    A row whose F or J is not finite (a coordinate exactly on a collision)
    takes a zero step.  The other rows are inverted by LU (np.linalg.inv),
    and a row keeps its LU inverse while its condition number
    ||J||_1 ||J^-1||_1 is below _LU_COND.  Every other row is singular or
    nearly so, mostly near a multiple root or a positive-dimensional
    component, and takes the pseudoinverse, which reaches those at a linear
    rate.  Each row's step depends on that row alone: an exactly zero pivot
    makes inv refuse the whole batch, so then the rows whose LU has one
    (slogdet sign 0) are split off to the pseudoinverse.
    """
    ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
    lu = ok.copy()
    inv = np.zeros_like(J)
    try:
        inv[ok] = np.linalg.inv(J[ok])
    except np.linalg.LinAlgError:
        lu[ok] = np.linalg.slogdet(J[ok])[0] != 0
        inv[lu] = np.linalg.inv(J[lu])
    # ||A||_1 is the largest column sum of |A|
    kappa = np.abs(J).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    lu &= kappa < _LU_COND
    svd = ok & ~lu
    if svd.any():
        inv[svd] = np.linalg.pinv(J[svd])
    step = np.zeros_like(F)
    step[ok] = -(inv[ok] @ F[ok][:, :, None])[:, :, 0]
    step[~np.isfinite(step).all(axis=1)] = 0.0
    return step


def _newton(pts: np.ndarray, C: np.ndarray, zs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the cleared equations from the multistart's random starts.

    Runs up to _MAX_GN_ITER steps (_gn_step: LU, or the pseudoinverse where
    J is ill-conditioned) on pts, shape (S, L), in place.  Two kinds of
    start stop iterating:
    - a start whose step leaves it bitwise unchanged sits at a fixed point
      of the iteration: its next input, and so every later step, is the same;
    - a start whose new point lies in the collision neighbourhood
      (_near_collision) is running onto an extra zero of F, where w = 0: a
      point the filter of solve_critical (_accepted) rejects.
    Only the live starts are evaluated; each row's step depends on that row
    alone, so every sample the filter accepts is bitwise that of stepping
    every start every time, unless a start would leave the collision
    neighbourhood again.
    """
    live = np.ones(len(pts), dtype=bool)
    for _ in range(_MAX_GN_ITER):
        idx = np.nonzero(live)[0]
        if not len(idx):
            break
        cur = pts[idx]
        F, J, _ = _critical_equations(cur, C, zs, W)
        step = _gn_step(F, J)
        new = cur + step
        pts[idx] = new
        done = (new.view(np.uint64) == cur.view(np.uint64)).all(axis=1)
        live[idx[done | _near_collision(new, C, zs, W)]] = False
    return pts


def _polish(pts: np.ndarray, C: np.ndarray, zs: np.ndarray,
            W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Newton step from points built by linear algebra, where it helps.

    Steps every row of pts, shape (S, L), once (_gn_step) and keeps the step
    on the rows whose largest log-gradient component it lowers; the other
    rows come back bitwise unchanged, and pts is not modified.  The stepped
    rows are evaluated for the log-gradient alone (_log_residual), with no
    Jacobian.  Returns the points and that component at each of them, the
    lower of the two it computed, which the filter (_accepted) reads instead
    of evaluating it a third time.
    """
    F, J, r = _critical_equations(pts, C, zs, W)
    stepped = pts + _gn_step(F, J)
    res, res_stepped = np.abs(r).max(axis=1), _log_residual(stepped, C, zs, W)
    lower = res_stepped < res
    return np.where(lower[:, None], stepped, pts), np.where(lower, res_stepped, res)


# -- the space of a tuple ------------------------------------------------------

def induced_space(ys: Sequence[Poly], data: MasterData) -> np.ndarray:
    """Orthonormal coefficient basis of the space generated by a tuple.

    Mirrors the reproduction cascade numerically: for each target size the
    tuple is remutated from scratch in directions i..1 and the final first
    entry joins the basis.  Only spans matter here, so least-squares
    particular solutions are fine (gaudin.wronskian_lstsq).
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
            cur[j - 1] = gaudin.wronskian_lstsq(cur[j - 1], T[j - 1] * lo * hi)
        us.append(cur[0])
    deg = max(u.degree() for u in us)
    A = np.array([[complex(u.coeff(k)) for k in range(deg + 1)] for u in us], dtype=complex).T
    Q, _ = np.linalg.qr(A)
    return Q[:, : len(us)]


def component_multiplicity(system: MultivariateSystem, sample: Sequence[complex],
                           rng: np.random.Generator) -> tuple[int, int]:
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
            res = local_multiplicity(sliced, tuple(sample), max_order=_SLICE_MAX_ORDER)
        except NotIsolated:
            continue
        return dim, res.multiplicity
    raise NotIsolated("slicing never produced an isolated root")


# -- sectors built from the point sector ------------------------------------------

def point_sector(N: int) -> tuple[int, ...]:
    """The sector w = (N+1, .., 1), where the cell of every space is a point.

    It hands out the smallest labels first, so it minimises every level size
    l_i: the only flag of a space V there is V's filtration by degree, and V
    gives exactly one critical orbit.
    """
    return tuple(range(N + 1, 0, -1))


def _degree_basis(Q: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Columns e_1..e_{N+1} of the space spanned by Q, one per degree.

    e_j has degree labels[j-1], its coefficient there is 1 and its
    coefficients at the other labels are 0; the degrees of a space are the
    labels, so this basis is unique.  Coefficients above labels[j-1] are
    rounding noise and are set to 0.
    """
    rows = list(labels)
    E = Q[: labels[0] + 1] @ np.linalg.inv(Q[rows])
    E[np.arange(len(E))[:, None] > np.array(rows)[None, :]] = 0.0
    E[rows] = np.eye(len(rows))
    return E


def _start_radius(zs: np.ndarray) -> float:
    return 2.0 * (max((abs(z) for z in zs), default=0.0) + 1.0)


def build_sector(data: MasterData, basic: BasicSituation, point_orbits: Sequence[CriticalOrbit],
                 seed: int = 0) -> list[CriticalOrbit]:
    """Critical orbits of the sector of ``data``, one per point-sector orbit.

    ``basic`` is the basic situation of ``data`` (translate_master), and
    ``point_orbits`` are the orbits of its point sector.  Each one gives its
    space V (induced_space), reduced to one basis element e_j per degree.
    The flag in the cell of the sector w takes at step i the element of the
    label w hands out there, plus random complex multiples (drawn from
    ``seed``) of the elements of lower degree.  The roots of the monic
    y_i = Wr(f_1..f_i)/K_i are the coordinates of level i; the Wr(f_1..f_i)
    of one flag come from one partial_wronskians call.  The points take one
    Gauss-Newton step where it lowers the residual (_polish), and a point is
    kept only if the solver's own filter (_accepted) accepts it.  Its orbit
    has the dimension of the cell, #{i < j : w_i < w_j}, and the
    multiplicity and hits of its point-sector orbit.
    """
    if not point_orbits:
        return []
    sector = _sector_of(data)
    labels, w = sector.labels, sector.w
    K = [k.to_ring(CC) for k in basic.K]
    rng = np.random.default_rng(seed)
    rows = []
    for orbit in point_orbits:
        # every sector of a basic situation has the points and T of data
        E = _degree_basis(induced_space(orbit.tuple_y, data), labels)
        flag = []
        for wi in w:
            low = E.shape[1] - wi
            c = rng.normal(size=low) + 1j * rng.normal(size=low)
            flag.append(Poly(CC, E[:, wi - 1] + E[:, wi:] @ c))
        row = []
        for i, wr in enumerate(partial_wronskians(flag[:basic.N]), start=1):
            y, _ = div_rem(wr, K[i])
            row.extend(np.roots(y.monic().coeffs[::-1]))
        rows.append(row)

    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    pts = np.array(rows, dtype=complex).reshape(len(rows), data.size())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pts, res = _polish(pts, C, zs, W)
        good, res = _accepted(pts, C, zs, W, _FAR_FACTOR * _start_radius(zs), res)
    dim = sum(1 for a, b in itertools.combinations(w, 2) if a < b)
    return _sorted_orbits([(sort_key, CriticalOrbit(
        point, float(res[s]), point_orbits[s].multiplicity, gamma(point), dimension=dim,
        hits=point_orbits[s].hits)) for s, sort_key, point in _accepted_rows(pts, good, data.l)])


# -- the solver ----------------------------------------------------------------

def _sorted_orbits(keyed: list[tuple[list, CriticalOrbit]]) -> list[CriticalOrbit]:
    # the orbits in the order of the sort keys (_sort_key) they are paired
    # with, each computed once from its orbit's key (_orbit_keys)
    return [o for _, o in sorted(keyed, key=lambda ko: ko[0])]


def _accepted_rows(pts: np.ndarray, good: np.ndarray, l: Sequence[int]):
    # (row, sort key, canonical point) of every accepted row, one orbit each
    idx = np.nonzero(good)[0]
    for s, key in zip(idx, _orbit_keys(pts[idx], l).tolist()):
        yield s, _sort_key(key), _canonical(pts[s], l)


def _clusters(pts: np.ndarray, good: np.ndarray, l: Sequence[int]) -> list[tuple[list[int], list]]:
    # accepted rows whose tuples y = gamma(t) agree to _DEDUP_RADIUS relative,
    # each cluster listed from its first row in key order, with that row's
    # sort key; a row joins the first cluster whose head (first key) is near,
    # all heads compared in one array pass
    idx = np.nonzero(good)[0]
    keys = _orbit_keys(pts[idx], l)
    sort_keys = [_sort_key(key) for key in keys.tolist()]
    heads = np.empty_like(keys)
    clusters: list[tuple[list[int], list]] = []
    for j in sorted(range(len(idx)), key=sort_keys.__getitem__):
        key = keys[j]
        kscale = 1.0 + np.abs(key).max()
        near = np.flatnonzero(np.abs(key - heads[:len(clusters)]).max(axis=1)
                              < _DEDUP_RADIUS * kscale)
        if len(near):
            clusters[near[0]][0].append(int(idx[j]))
        else:
            heads[len(clusters)] = key
            clusters.append(([int(idx[j])], sort_keys[j]))
    return clusters


def _key_roots(key: np.ndarray, l: Sequence[int]) -> np.ndarray:
    # the coordinates whose tuple has the coefficients ``key`` (_orbit_keys)
    out = []
    pos = 0
    for li in l:
        e = key[pos:pos + li] * (-1.0) ** np.arange(1, li + 1)
        out.append(np.roots(np.concatenate([[1.0], e])))
        pos += li
    return np.concatenate(out).astype(complex)


def _point_orbits(data: MasterData, basic: BasicSituation, starts: int,
                  seed: int) -> list[CriticalOrbit]:
    """The critical orbits of a point sector, each with its local multiplicity.

    When every nonzero weight is omega_1 (gaudin.covers), the samples are the
    D joint eigenvalues of the Gaudin Hamiltonians (gaudin.eigen_points),
    each after one Gauss-Newton step where it lowers the residual (_polish),
    and the filter (_accepted) reads the residual _polish returns, so each
    eigen-point is evaluated twice, once with the Jacobian and once for the
    log-gradient alone; ``starts`` and ``seed`` are not read.  When every
    weighted marked point is real (gaudin.real_sites, the test that makes
    joint_eigenvalues run eigh), the Bethe algebra has a simple spectrum
    (Mukhin, Tarasov and Varchenko): every accepted eigen-point is its own
    orbit, of multiplicity 1 and 1 hit, ordered by the sort key of its
    tuple, and nothing below runs.

    Otherwise accepted samples are clustered by their tuples (_clusters:
    each key is compared with every cluster head at once).  On the Bethe
    route a cluster of m > 1 eigenvalues is one orbit of m hits,
    represented by the roots of the mean key of its raw eigen-points: a
    split m-fold eigenvalue is accurate to eps^(1/m) in each member but to
    O(eps) in its centroid.  On the multistart ``starts`` random points run
    Newton to its fixed points, and the filter evaluates the equations
    there.  An orbit whose scaled Hessian of log Phi has its smallest
    singular value above _MULT_TOL (_hessian_sigma) has multiplicity 1.
    Only the others climb the Macaulay dual spaces of the cleared system,
    which is built once, for the first of them: the orbits whose Hessian is
    singular, and every merged Bethe cluster, whose representative is not a
    sample the filter saw.  The climb is bounded at max(4, D + 1), D the
    number of eigen-points or, on the multistart, the intersection number.
    """
    L = data.size()
    if L == 0:
        one = Poly.one(data.ring)
        return [CriticalOrbit(tuple(() for _ in range(data.N)), 0.0, 1,
                              tuple(one for _ in range(data.N)))]

    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    radius = _start_radius(zs)
    on_bethe = gaudin.covers(data)

    # Newton runs on the cleared equations F_p = w_p r_p, evaluated in
    # factored form by _critical_equations: the raw log-gradient r has a
    # spurious attracting zero at infinity that swallows almost every start,
    # while F has honest basins.  A runaway start (no basin, or walking out
    # along a noncompact solution curve) keeps its path, and the filter
    # drops its end point beyond _FAR_FACTOR * radius.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if on_bethe:
            raw = gaudin.eigen_points(data)
            bound = len(raw)
            pts, res = _polish(raw, C, zs, W)
        else:
            bound = intersection_number(basic)
            pts = _newton(_rand_points(np.random.default_rng(seed), starts, L, radius),
                          C, zs, W)
            res = None
        good, res = _accepted(pts, C, zs, W, _FAR_FACTOR * radius, res)

    if on_bethe and gaudin.real_sites(data):
        # simple spectrum at real marked points (MTV): one simple orbit per eigen-point
        return _sorted_orbits([(sort_key, CriticalOrbit(point, float(res[s]), 1, gamma(point)))
                               for s, sort_key, point in _accepted_rows(pts, good, data.l)])
    # orbits are identified by the tuple y = gamma(t), not by coordinates
    clusters = _clusters(pts, good, data.l)
    # a nondegenerate Hessian of log Phi means multiplicity 1 (_hessian_sigma)
    simple = _hessian_sigma(pts[[rows[0] for rows, _ in clusters]], C, zs, W) > _MULT_TOL
    system = None
    keyed = []
    for (rows, sort_key), nondegenerate in zip(clusters, simple):
        if on_bethe and len(rows) > 1:
            key = _orbit_keys(raw[rows], data.l).mean(axis=0)
            row = _key_roots(key, data.l)
            sort_key = _sort_key(key.tolist())
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                rv = float(np.abs(_critical_equations(row[None], C, zs, W)[2]).max())
            nondegenerate = False
        else:
            row, rv = pts[rows[0]], float(res[rows].min())
        point = _canonical(row, data.l)
        if nondegenerate:
            m = 1
        else:
            if system is None:
                # embedded once: every local_multiplicity call runs in "numeric" mode
                system = clear_denominators(data).map_coeffs(CC.coerce)
            try:
                m = local_multiplicity(system, tuple(_flat(point)),
                                       max_order=max(4, bound + 1)).multiplicity
            except NotASolution:
                continue  # true critical point at a scale the cleared system cannot hold
        keyed.append((sort_key, CriticalOrbit(point, rv, m, gamma(point), hits=len(rows))))
    return _sorted_orbits(keyed)


def solve_critical(data: MasterData, starts: int = 200, seed: int = 0,
                   basic: BasicSituation | None = None) -> list[CriticalOrbit]:
    """All critical orbits of a master function: solved in the point sector, built elsewhere.

    Deterministic for fixed (data, starts, seed).  Data that no space
    realizes (translate_master's NotRealizable: negative or colliding
    labels, or a marked point's sequence that does not fit d) have no
    critical point and give [].  ``basic`` is the basic situation of ``data``
    (translate_master); a caller that holds it passes it, and ``data`` is
    not translated again.  When the sector of
    ``data`` is not the point sector of its basic situation, that point
    sector is solved and the orbits of ``data`` are built from its spaces
    (build_sector, random flags drawn from ``seed``).  The point sector is
    solved on one of two routes (_point_orbits):
    - the Bethe route, when every nonzero weight column is omega_1: the
      orbits are the joint eigenvalues of the Gaudin Hamiltonians on the
      singular space (the gaudin module), one small eigendecomposition that
      finds every orbit; their coordinates take one Gauss-Newton step,
      kept where it lowers the residual (_polish).
    - the multistart, for every other weight: each of the ``starts`` Newton
      paths is drawn once, uniformly from a disc of radius
      2(max|z_s| + 1), and runs to a fixed point of the iteration.
    A Gauss-Newton step inverts a well-conditioned Jacobian by LU and takes
    the pseudoinverse of the others, so degenerate solutions are reached as
    well, at a linear rate; the choice is made row by row (_gn_step).
    Samples near a collision are zeros of the cleared equations only and are
    dropped; Newton stops iterating a sample once it gets there (_newton).
    On the Bethe route at real marked points every accepted eigen-point is
    one orbit of multiplicity 1 (the simple spectrum of Mukhin, Tarasov and
    Varchenko), with no grouping and no multiplicity test.  Elsewhere
    samples whose tuples y = gamma(t) agree to 1e-6 relative are one orbit,
    and each orbit gets a local multiplicity: 1 where the Hessian of log Phi
    is nonsingular, and otherwise the dimension of its Macaulay dual space.
    Every orbit of the point sector is isolated, so a sample where the dual
    spaces keep growing raises NotIsolated.  Comparing the count with the
    intersection number is the caller's business (cli.run_verify names the
    verdict).
    """
    try:
        sector = _sector_of(data)
        if basic is None:
            basic = translate_master(data)[0]
    except NotRealizable:  # no space realizes the data
        return []

    point = point_sector(basic.N)
    if sector.w == point:
        return _point_orbits(data, basic, starts, seed)
    try:
        point_data = master_from_sector(basic, point)
    except EmptySector:  # no space realizes the data
        return []
    return build_sector(data, basic, _point_orbits(point_data, basic, starts, seed), seed)
