"""Growing a polynomial space from a fertile tuple, one direction at a time.

A tuple (y_1, ..., y_N) of monic polynomials, together with weight
polynomials T_0..T_N, is *fertile* when every y_i is square free, shares no
root with any T_j or with its neighbors, and the Wronskian equation
Wr(y_i, *) = T_i y_{i-1} y_{i+1} is solvable (y_0 = y_{N+1} = 1).  Solving
that equation and picking a generic member of the solution family replaces
y_i by a mutated partner; fertility survives mutation.  Each mutated tuple
carries a verified fertility report: only the divisibility conditions at
levels i-1, i and i+1 are re-checked, the new y_i's square-free, root-avoiding
and coprimality verdicts are the ones generic_candidate chose it for, and
every other verdict is the parent's, whose inputs the mutation left unchanged.

Cascades of mutations in directions i, i-1, ..., 1, each restarted from the
original tuple, produce a basis u_1, ..., u_{N+1} whose partial Wronskians
are proportional to K_i y_i, where K_i = T_0^i T_1^{i-1} ... T_{i-1}.  The
exponents of the flag spanned by the basis are given by closed-form tables
in the orders and degrees of the T_j, and the whole construction is inverted
by theta, which divides partial Wronskians by K_i.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    IdentityFailed,
    NotDivisible,
    NotFertile,
    NotMonic,
    VerificationFailed,
    WroncritError,
    ZeroPolynomial,
)
from .field import format_scalar
from .polyring import (
    Poly,
    divides,
    exact_div,
    gcd_monic,
    is_squarefree,
    ord_at,
    partial_wronskians,
    wronskian,
    wronskian_pair,
)
# build_space reads its exponents off the partial Wronskians; exponents_at and
# exponents_at_infinity stay bound here because the benchmark's tracer wraps
# this module's bindings by name
from .ramification import exponents_at, exponents_at_infinity, infinity_labels  # noqa: F401
from .wronskian_eq import generic_candidate, solve


@dataclass(frozen=True)
class FertileTuple:
    """Mutation state: y_1..y_N monic, weights T_0..T_N, marked points.

    ``points`` must carry every root of every T_j (each T_j splits over
    them), and a point that is a root of no T_j is dropped: the marked points
    are the roots of the weights, so exponent tables and fertility read them
    without factoring.  Fertility itself is a property, checked by
    is_fertile, not a constructor guarantee.  ``verified`` is the tuple's
    fertility report when mutate or build_space verified it, which mutate
    then starts from, and None for a tuple built by the constructor.
    """

    ring: Any
    y: tuple[Poly, ...]
    T: tuple[Poly, ...]
    points: tuple[Any, ...] = ()
    verified: FertilityReport | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        y = tuple(p.to_ring(self.ring) for p in self.y)
        T = tuple(p.to_ring(self.ring) for p in self.T)
        pts = tuple(self.ring.coerce(z) for z in self.points)
        if len(T) != len(y) + 1:
            raise DimensionMismatch(
                f"{len(y)} polynomials need {len(y) + 1} weights, got {len(T)}")
        for k, p in enumerate(y, start=1):
            if p.is_zero() or not p.is_monic():
                raise NotMonic(f"y_{k} must be monic")
        for k, t in enumerate(T):
            if t.is_zero():
                raise ZeroPolynomial(f"T_{k} is zero")
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if pts[a] == pts[b]:
                    raise DuplicatePoints(f"point {format_scalar(pts[a])} repeats")
        orders = [[ord_at(t, z) for t in T] for z in pts]
        for k, t in enumerate(T):
            if sum(row[k] for row in orders) != t.degree():
                raise WroncritError(f"T_{k} does not split over the given points")
        # a point dividing no T_j carries no weight: the exponent tables say
        # nothing there, so it is dropped rather than checked against them
        pts = tuple(z for z, row in zip(pts, orders) if any(row))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "points", pts)

    def _with(self, **changes) -> FertileTuple:
        """A copy of this tuple with the given fields replaced.  It shares T,
        the points and their cached polynomials, which this tuple validated,
        so the constructor's checks do not run again."""
        new = copy.copy(self)
        for name, value in changes.items():
            object.__setattr__(new, name, value)
        return new

    @property
    def N(self) -> int:
        return len(self.y)

    def y_at(self, i: int) -> Poly:
        # 1-based with the convention y_0 = y_{N+1} = 1
        if 1 <= i <= self.N:
            return self.y[i - 1]
        return Poly.one(self.ring)

    def rhs(self, i: int) -> Poly:
        """Right side T_i y_{i-1} y_{i+1} of the mutation equation in direction i."""
        return self.T[i] * self.y_at(i - 1) * self.y_at(i + 1)

    @cached_property
    def marked(self) -> Poly:
        """The monic polynomial whose roots are the marked points."""
        return Poly.from_roots(self.ring, self.points)

    @cached_property
    def K(self) -> tuple[Poly, ...]:
        """K_0..K_{N+1} with K_i = T_0^i T_1^{i-1} ... T_{i-1}."""
        out = [Poly.one(self.ring)]
        for i in range(1, self.N + 2):
            prod = Poly.one(self.ring)
            for j in range(i):
                prod = prod * self.T[j] ** (i - j)
            out.append(prod)
        return tuple(out)


@dataclass(frozen=True)
class _Level:
    """Verdicts of the fertility conditions on y_i.

    ``avoids`` pairs each T_j of positive degree with whether y_i avoids its
    roots (empty when y_i is constant); ``coprime`` (y_i and y_{i+1}) is None
    at i = N; ``divides`` is None when y_i is not square free, which skips it.
    """

    sqfree: bool
    avoids: tuple[tuple[int, bool], ...]
    coprime: bool | None
    divides: bool | None

    def entries(self, i: int):
        """(verdict, entry if it holds, entry if it fails), in report order."""
        yield self.sqfree, f"y_{i} square free", f"y_{i} has a multiple root"
        for j, ok in self.avoids:
            yield ok, f"y_{i} avoids roots of T_{j}", f"y_{i} shares a root with T_{j}"
        if self.coprime is not None:
            yield (self.coprime, f"y_{i} coprime to y_{i + 1}",
                   f"y_{i} and y_{i + 1} share a root")
        if self.divides is None:
            yield False, None, f"divisibility for y_{i} skipped (not square free)"
        else:
            yield (self.divides, f"y_{i} divides Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})",
                   f"y_{i} does not divide Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})")


@dataclass(frozen=True)
class FertilityReport:
    ok: bool
    passed: tuple[str, ...]
    failures: tuple[str, ...]
    # the verdicts on y_1..y_N the entries were rendered from, which mutate
    # reads; two reports are equal when their entries are
    levels: tuple[_Level, ...] = field(default=(), repr=False, compare=False)

    def __str__(self):
        if self.ok:
            return "fertile: " + "; ".join(self.passed)
        return "not fertile: " + "; ".join(self.failures)


def _report(levels: list[_Level]) -> FertilityReport:
    passed, failures = [], []
    for i, level in enumerate(levels, start=1):
        for ok, good, bad in level.entries(i):
            (passed if ok else failures).append(good if ok else bad)
    return FertilityReport(not failures, tuple(passed), tuple(failures), tuple(levels))


def _avoids(t: FertileTuple, yi: Poly, shared) -> tuple[tuple[int, bool], ...]:
    """For each T_j of positive degree, whether yi avoids its roots, given the
    marked points where yi vanishes."""
    if yi.degree() <= 0:
        return ()
    return tuple((j, not any(ord_at(Tj, z) for z in shared))
                 for j, Tj in enumerate(t.T) if Tj.degree() > 0)


def _check_level(t: FertileTuple, i: int, sqfree: bool | None = None,
                 avoids: tuple | None = None, coprime: bool | None = None,
                 rhs: Poly | None = None) -> _Level:
    """The verdicts on y_i in t.  A verdict passed in is taken as verified
    and the others are computed; divisibility always is, against ``rhs``
    when given (it must be t.rhs(i)).  The roots y_i shares with a T_j are
    read at the marked points, no gcd."""
    yi = t.y_at(i)
    if sqfree is None:
        sqfree = is_squarefree(yi)
    if avoids is None:
        avoids = _avoids(t, yi, [z for z in t.points if ord_at(yi, z)])
    if i == t.N:
        coprime = None
    elif coprime is None:
        ynext = t.y_at(i + 1)
        coprime = (yi.degree() <= 0 or ynext.degree() <= 0
                   or gcd_monic(yi, ynext).degree() == 0)
    div = None
    if sqfree:
        if rhs is None:
            rhs = t.rhs(i)
        div = yi.degree() <= 0 or divides(yi, wronskian_pair(yi.deriv(), rhs))
    return _Level(sqfree, avoids, coprime, div)


def is_fertile(t: FertileTuple) -> FertilityReport:
    """Check all fertility conditions; failures are reported, never raised."""
    return _report([_check_level(t, i) for i in range(1, t.N + 1)])


def mutate(t: FertileTuple, i: int) -> tuple[FertileTuple, Poly, int]:
    """Reproduce in direction i: swap y_i for a generic mutated partner.

    Returns the new tuple, the monic replacement, and the ladder constant
    that made it generic.  The replacement is rechecked against the
    Wronskian equation before scaling, and the new tuple's fertility is
    verified; its report becomes the new tuple's ``verified``.

    The new report starts from t's: t.verified, or is_fertile(t) for a
    tuple that carries none.  Only the divisibility conditions at levels
    i-1, i and i+1 are re-checked.  The new y_i is square free, avoids the
    roots of every T_j and is coprime to both neighbours, since
    generic_candidate chose it so, and its divisibility is checked against
    the target T_i y_{i-1} y_{i+1} already built; every other verdict is
    t's, whose inputs the mutation left unchanged.
    """
    if not 1 <= i <= t.N:
        raise WroncritError(f"direction {i} outside 1..{t.N}")
    yi = t.y_at(i)
    target = t.rhs(i)
    sol = solve(yi, target)
    # the marked points are the roots of T_0..T_N
    avoid = [t.marked, t.y_at(i - 1), t.y_at(i + 1)]
    cand, c = generic_candidate(sol.particular, yi, avoid_roots_of=avoid)
    if wronskian_pair(yi, cand) != target:
        raise VerificationFailed(f"mutated y_{i} fails its defining equation")
    ytilde = cand.monic()
    if ytilde.is_zero() or not ytilde.is_monic():
        raise NotMonic(f"y_{i} must be monic")
    new_t = t._with(y=t.y[:i - 1] + (ytilde,) + t.y[i:], verified=None)
    levels = list((t.verified or is_fertile(t)).levels)
    # generic_candidate took the candidate square free and coprime to
    # t.marked and to both neighbours: it vanishes at no marked point; its
    # neighbours are t's, so its right side is the target
    levels[i - 1] = _check_level(new_t, i, True, _avoids(new_t, ytilde, ()), True, target)
    if i > 1:
        p = levels[i - 2]
        levels[i - 2] = _check_level(new_t, i - 1, p.sqfree, p.avoids, True)
    if i < t.N:
        p = levels[i]
        levels[i] = _check_level(new_t, i + 1, p.sqfree, p.avoids, p.coprime)
    report = _report(levels)
    if not report.ok:
        raise NotFertile(f"mutation in direction {i}: {report}")
    object.__setattr__(new_t, "verified", report)
    return new_t, ytilde, c


@dataclass(frozen=True)
class PolySpace:
    """Basis with verified Wronskian family and exponent tables.

    wronskians[i-1] = Wr(u_1..u_i) = kappa_i K_i y_i with the recorded
    nonzero constants kappa; finite_exponents pairs each marked point with
    its full table (e_1(z), ..., e_{N+1}(z)); infinity_exponents is
    (c_1, ..., c_{N+1}) in filtration order, and w ranks each c_i in the
    descending sort (the cell bookkeeping of the space at infinity).
    """

    source: FertileTuple
    basis: tuple[Poly, ...]
    wronskians: tuple[Poly, ...]
    kappa: tuple[Any, ...]
    finite_exponents: tuple[tuple[Any, tuple[int, ...]], ...]
    infinity_exponents: tuple[int, ...]
    w: tuple[int, ...]


def _added_exponents(orders: list[int]) -> list[int]:
    """The exponent E_i adds to E_{i-1} at one point, i = 1..len(orders).

    ``orders[i-1]`` is ord_z Wr(E_i) (deg Wr(E_i) at infinity), which is
    e_1 + ... + e_i - i(i-1)/2 for the exponents e_1..e_i of E_i there
    (Eisenbud-Harris); E_{i-1} has all but one of them, so the new one is
    ord Wr(E_i) - ord Wr(E_{i-1}) + i - 1, with Wr(E_0) = 1.
    """
    return [k - prev + i for i, (prev, k) in enumerate(zip((0, *orders), orders))]


def build_space(t: FertileTuple) -> PolySpace:
    """Construct, and verify in full, the space attached to a fertile tuple.

    u_1 = K_1 y_1; u_{i+1} comes from cascading mutations in directions
    i, i-1, ..., 1, always restarted from the original tuple, then scaling
    the final first entry by K_1.  The source tuple's fertility is checked
    once per call, on a copy that carries the report down each cascade, so
    nothing is kept on t.  All three conclusions are then verified: the
    Wronskian family (every Wr(u_1..u_i), read off one expansion by
    partial_wronskians), the finite exponent tables, and the degrees at
    infinity.  The exponents of each prefix E_i = span(u_1..u_i) are read
    off the vanishing orders and degrees of those Wronskians
    (_added_exponents); nothing is shifted or row reduced.
    """
    report = is_fertile(t)
    if not report.ok:
        raise NotFertile(str(report))
    src = t._with(verified=report)
    K = t.K
    basis = [K[1] * t.y_at(1)]
    for i in range(1, t.N + 1):
        cur = src
        for direction in range(i, 0, -1):
            cur, _, _ = mutate(cur, direction)
        basis.append(K[1] * cur.y_at(1))

    wrs = partial_wronskians(basis)
    kappa = []
    for i in range(1, t.N + 2):
        target = K[i] * t.y_at(i)
        try:
            q = exact_div(wrs[i - 1], target)
        except NotDivisible:
            raise VerificationFailed(
                f"Wr(u_1..u_{i}) is not a multiple of K_{i} y_{i}") from None
        if q.degree() != 0:
            raise VerificationFailed(
                f"Wr(u_1..u_{i}) / (K_{i} y_{i}) has positive degree {q.degree()}")
        kappa.append(q.coeff(0))

    c_table, w = infinity_labels([y.degree() for y in t.y], [Tj.degree() for Tj in t.T])
    finite = []
    for z in t.points:
        orders = [ord_at(Tj, z) for Tj in t.T]
        etab = tuple(i - 1 + sum(orders[:i]) for i in range(1, t.N + 2))
        finite.append((z, etab))

    # every Wr(E_i) is kappa_i K_i y_i with kappa_i != 0, so it has an order
    # at each point and a degree
    added_inf = _added_exponents([W.degree() for W in wrs])
    added = [_added_exponents([ord_at(W, z) for W in wrs]) for z, _ in finite]
    for i in range(1, t.N + 2):
        for (z, etab), new in zip(finite, added):
            got = tuple(sorted(new[:i]))
            if got != etab[:i]:
                raise VerificationFailed(
                    f"exponents of E_{i} at {format_scalar(z)}: {got}, table says {etab[:i]}")
        want_inf = tuple(sorted(c_table[:i]))
        if len(set(want_inf)) != i:
            raise VerificationFailed(f"degree table {list(c_table[:i])} collides")
        got_inf = tuple(sorted(added_inf[:i]))
        if got_inf != want_inf:
            raise VerificationFailed(
                f"exponents of E_{i} at infinity: {got_inf}, table says {want_inf}")

    return PolySpace(t, tuple(basis), wrs, tuple(kappa), tuple(finite), c_table, w)


def theta(space: PolySpace) -> tuple[Poly, ...]:
    """Inverse construction: y_i = monic(Wr(u_1..u_i) / K_i), i = 1..N,
    with the K_i of the space's source tuple.  The partial Wronskians are
    the ones the space stores, which build_space verified."""
    K = space.source.K
    out = []
    for i, W in enumerate(space.wronskians[:-1], start=1):
        try:
            q = exact_div(W, K[i])
        except NotDivisible:
            raise NotDivisible(f"Wr(u_1..u_{i}) is not divisible by K_{i}") from None
        out.append(q.monic())
    return tuple(out)


def q_witness(space: PolySpace, i: int) -> Poly:
    """Q_i = Wr(u_1..u_{i-1}, u_{i+1}) / K_i, with its defining identity.

    Asserts Wr(yhat_i, Q_i) = T_i yhat_{i-1} yhat_{i+1} exactly, where
    yhat_j are the raw (unscaled) quotients Wr(E_j)/K_j and yhat_0 = 1.
    """
    t = space.source
    if not 1 <= i <= t.N:
        raise WroncritError(f"index {i} outside 1..{t.N}")
    K = t.K

    def yhat(j: int) -> Poly:
        if j == 0:
            return Poly.one(t.ring)
        return exact_div(space.wronskians[j - 1], K[j])

    try:
        Q = exact_div(wronskian(list(space.basis[:i - 1]) + [space.basis[i]]), K[i])
    except NotDivisible:
        raise IdentityFailed(f"Q_{i} is not a polynomial") from None
    lhs = wronskian_pair(yhat(i), Q)
    rhs = t.T[i] * yhat(i - 1) * yhat(i + 1)
    if lhs != rhs:
        raise IdentityFailed(f"Wr(yhat_{i}, Q_{i}) != T_{i} yhat_{i - 1} yhat_{i + 1}")
    return Q
