"""Growing a polynomial space from a fertile tuple, one direction at a time.

A tuple (y_1, ..., y_N) of monic polynomials, together with weight
polynomials T_0..T_N, is *fertile* when every y_i is square free, shares no
root with any T_j or with its neighbors, and the Wronskian equation
Wr(y_i, *) = T_i y_{i-1} y_{i+1} is solvable (y_0 = y_{N+1} = 1).  Solving
that equation and picking a generic member of the solution family replaces
y_i by a mutated partner; fertility survives mutation, which is re-verified
rather than assumed.

Cascades of mutations in directions i, i-1, ..., 1, each restarted from the
original tuple, produce a basis u_1, ..., u_{N+1} whose partial Wronskians
are proportional to K_i y_i, where K_i = T_0^i T_1^{i-1} ... T_{i-1}.  The
exponents of the flag spanned by the basis are given by closed-form tables
in the orders and degrees of the T_j, and the whole construction is inverted
by theta, which divides partial Wronskians by K_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .errors import (
    DependentBasis,
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
    wronskian,
    wronskian_pair,
)
from .ramification import BasicSituation, exponents_at, exponents_at_infinity
from .wronskian_eq import generic_candidate, solve


@dataclass(frozen=True)
class FertileTuple:
    """Mutation state: y_1..y_N monic, weights T_0..T_N, marked points.

    ``points`` must carry every root of every T_j (each T_j splits over
    them); that is what lets exponent tables be checked without factoring.
    Fertility itself is a property, checked by is_fertile, not a constructor
    guarantee.
    """

    ring: Any
    y: tuple[Poly, ...]
    T: tuple[Poly, ...]
    points: tuple[Any, ...] = ()

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
        for k, t in enumerate(T):
            if sum(ord_at(t, z) for z in pts) != t.degree():
                raise WroncritError(f"T_{k} does not split over the given points")
        # a point dividing no T_j carries no weight: the exponent tables say
        # nothing there, so it is dropped rather than checked against them
        pts = tuple(z for z in pts if any(ord_at(t, z) for t in T))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "points", pts)

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
class FertilityReport:
    ok: bool
    passed: tuple[str, ...]
    failures: tuple[str, ...]

    def __str__(self):
        if self.ok:
            return "fertile: " + "; ".join(self.passed)
        return "not fertile: " + "; ".join(self.failures)


def is_fertile(t: FertileTuple) -> FertilityReport:
    """Check all fertility conditions; failures are reported, never raised."""
    passed, failures = [], []

    def note(ok: bool, good: str, bad: str):
        (passed if ok else failures).append(good if ok else bad)

    for i in range(1, t.N + 1):
        yi = t.y_at(i)
        sqfree = is_squarefree(yi)
        note(sqfree, f"y_{i} square free", f"y_{i} has a multiple root")
        for j, Tj in enumerate(t.T):
            if yi.degree() > 0 and Tj.degree() > 0:
                ok = gcd_monic(yi, Tj).degree() == 0
                note(ok, f"y_{i} avoids roots of T_{j}",
                     f"y_{i} shares a root with T_{j}")
        if i < t.N:
            ynext = t.y_at(i + 1)
            ok = (yi.degree() <= 0 or ynext.degree() <= 0
                  or gcd_monic(yi, ynext).degree() == 0)
            note(ok, f"y_{i} coprime to y_{i + 1}",
                 f"y_{i} and y_{i + 1} share a root")
        if sqfree:
            ok = yi.degree() <= 0 or divides(yi, wronskian_pair(yi.deriv(), t.rhs(i)))
            note(ok, f"y_{i} divides Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})",
                 f"y_{i} does not divide Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})")
        else:
            failures.append(f"divisibility for y_{i} skipped (not square free)")
    return FertilityReport(not failures, tuple(passed), tuple(failures))


def mutate(t: FertileTuple, i: int) -> tuple[FertileTuple, Poly, int]:
    """Reproduce in direction i: swap y_i for a generic mutated partner.

    Returns the new tuple, the monic replacement, and the ladder constant
    that made it generic.  The replacement is rechecked against the
    Wronskian equation before scaling, and the output tuple's fertility is
    re-verified.
    """
    if not 1 <= i <= t.N:
        raise WroncritError(f"direction {i} outside 1..{t.N}")
    yi = t.y_at(i)
    target = t.rhs(i)
    sol = solve(yi, target)
    avoid = [Tj for Tj in t.T] + [t.y_at(i - 1), t.y_at(i + 1)]
    cand, c = generic_candidate(sol.particular, yi, avoid_roots_of=avoid)
    if wronskian_pair(yi, cand) != target:
        raise VerificationFailed(f"mutated y_{i} fails its defining equation")
    ytilde = cand.monic()
    new_t = FertileTuple(t.ring, t.y[:i - 1] + (ytilde,) + t.y[i:], t.T, t.points)
    report = is_fertile(new_t)
    if not report.ok:
        raise NotFertile(f"mutation in direction {i}: {report}")
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


def build_space(t: FertileTuple) -> PolySpace:
    """Construct, and verify in full, the space attached to a fertile tuple.

    u_1 = K_1 y_1; u_{i+1} comes from cascading mutations in directions
    i, i-1, ..., 1, always restarted from the original tuple, then scaling
    the final first entry by K_1.  All three conclusions are then verified:
    the Wronskian family, the finite exponent tables, and the degrees at
    infinity.
    """
    report = is_fertile(t)
    if not report.ok:
        raise NotFertile(str(report))
    K = t.K
    basis = [K[1] * t.y_at(1)]
    for i in range(1, t.N + 1):
        cur = t
        for direction in range(i, 0, -1):
            cur, _, _ = mutate(cur, direction)
        basis.append(K[1] * cur.y_at(1))

    wrs = [wronskian(basis[:i]) for i in range(1, t.N + 2)]
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

    c_table = []
    for i in range(1, t.N + 2):
        ci = (i - 1 + t.y_at(i).degree() - t.y_at(i - 1).degree()
              + sum(t.T[j].degree() for j in range(i)))
        c_table.append(ci)
    finite = []
    for z in t.points:
        orders = [ord_at(Tj, z) for Tj in t.T]
        etab = tuple(i - 1 + sum(orders[:i]) for i in range(1, t.N + 2))
        finite.append((z, etab))

    for i in range(1, t.N + 2):
        for z, etab in finite:
            got = exponents_at(basis[:i], z)
            if got != etab[:i]:
                raise VerificationFailed(
                    f"exponents of E_{i} at {format_scalar(z)}: {got}, table says {etab[:i]}")
        want_inf = tuple(sorted(c_table[:i]))
        if len(set(want_inf)) != i:
            raise VerificationFailed(f"degree table {c_table[:i]} collides")
        got_inf = exponents_at_infinity(basis[:i])
        if got_inf != want_inf:
            raise VerificationFailed(
                f"exponents of E_{i} at infinity: {got_inf}, table says {want_inf}")

    w = tuple(1 + sum(1 for cj in c_table if cj > ci) for ci in c_table)
    return PolySpace(t, tuple(basis), tuple(wrs), tuple(kappa),
                     tuple(finite), tuple(c_table), w)


def theta(space, basic: BasicSituation | None = None) -> tuple[Poly, ...]:
    """Inverse construction: y_i = monic(Wr(u_1..u_i) / K_i), i = 1..N.

    Accepts a PolySpace (K_i from its tuple) or a plain basis plus a
    validated basic situation supplying the K_i.
    """
    if isinstance(space, PolySpace):
        basis = space.basis
        K = basic.K if basic is not None else space.source.K
    else:
        if basic is None:
            raise WroncritError("a raw basis needs a basic situation for its K_i")
        basis = tuple(space)
        K = basic.K
    out = []
    for i in range(1, len(basis)):
        W = wronskian(list(basis[:i]))
        if W.is_zero():
            raise DependentBasis("basis is linearly dependent")
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
