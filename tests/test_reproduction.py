"""Mutation of polynomial tuples and the space construction they generate.

Random tuples are grown from the all-ones tuple by mutations, so every
instance is fertile by construction; the exponent tables of the built
spaces are then compared against the closed-form predictions, measured
independently with the echelon-based exponent readers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wroncrit import field, multiplicity, ramification, reproduction, wronskian_eq
from wroncrit.errors import (
    DuplicatePoints,
    NotFertile,
    NotMonic,
    VerificationFailed,
    WroncritError,
)
from wroncrit.field import QQ, make_extension
from wroncrit.polyring import (
    Poly,
    divides,
    gcd_monic,
    is_squarefree,
    ord_at,
    parse_poly,
    partial_wronskians,
    wronskian,
    wronskian_pair,
)
from wroncrit.ramification import exponents_at, exponents_at_infinity
from wroncrit.reproduction import (
    FertileTuple,
    FertilityReport,
    build_space,
    is_fertile,
    mutate,
    q_witness,
    theta,
)
from wroncrit.wronskian_eq import generic_candidate, solve


def P(s):
    return parse_poly(s, QQ)


def cuberoots_tuple():
    K = make_extension("x^2+x+1")
    w = K.gen
    x = Poly.x(K)
    return FertileTuple(K, (x,), (Poly.one(K), x ** 3 - 1), (K.one(), w, -1 - w))


# -- the worked example ---------------------------------------------------------

def test_cuberoots_tuple_is_fertile():
    rep = is_fertile(cuberoots_tuple())
    assert rep.ok
    assert not rep.failures


def test_cuberoots_space():
    space = build_space(cuberoots_tuple())
    ring = space.source.ring
    x = Poly.x(ring)
    assert space.basis == (x, x ** 3 + 2)
    # Wr(x, x^3+2) = 2 - 2x^3 = -2 K_2, so kappa = (1, -2)
    assert space.kappa == (ring.one(), ring.coerce(-2))
    assert space.infinity_exponents == (1, 3)
    assert space.w == (2, 1)
    for z, etab in space.finite_exponents:
        assert etab == (0, 2)


def test_theta_round_trip():
    t = cuberoots_tuple()
    assert theta(build_space(t)) == t.y


def test_q_witness_cuberoots():
    space = build_space(cuberoots_tuple())
    ring = space.source.ring
    Q = q_witness(space, 1)     # raises IdentityFailed if the relation breaks
    assert Q == Poly.x(ring) ** 3 + 2


def test_mutation_step():
    t = cuberoots_tuple()
    new, ytilde, c = mutate(t, 1)
    assert ytilde == Poly.x(t.ring) ** 3 + 2
    assert new.y == (ytilde,)
    # the unscaled solution was -(x^3+2)/2; the monic scaling costs a constant
    assert wronskian_pair(t.y_at(1), ytilde * Fraction(-1, 2)) == t.rhs(1)


# -- constructor guards ----------------------------------------------------------

def test_tuple_guards():
    one = Poly.one(QQ)
    with pytest.raises(NotMonic):
        FertileTuple(QQ, (P("2*x"),), (one, P("x")), (Fraction(0),))
    with pytest.raises(DuplicatePoints):
        FertileTuple(QQ, (P("x"),), (one, one), (Fraction(1), Fraction(1)))
    with pytest.raises(WroncritError):
        # T_1 has a root outside the declared points
        FertileTuple(QQ, (P("x"),), (one, P("x-5")), (Fraction(0),))
    # a declared point dividing no T_j carries no weight and is dropped
    t = FertileTuple(QQ, (P("x"),), (one, P("x-5")), (Fraction(5), Fraction(0)))
    assert t.points == (Fraction(5),)


def test_infertile_reports():
    one = Poly.one(QQ)
    t = FertileTuple(QQ, (P("x"),), (one, P("x")), (Fraction(0),))
    rep = is_fertile(t)       # y_1 shares its root with T_1
    assert not rep.ok
    assert any("shares a root" in f for f in rep.failures)
    with pytest.raises(NotFertile):
        build_space(t)


# -- random growth and the exponent formulas -------------------------------------

def random_grown_tuple(rng):
    N = rng.randint(1, 3)
    pts = [Fraction(z) for z in rng.sample(range(-6, 7), rng.randint(1, 3))]
    x = Poly.x(QQ)
    T = []
    for j in range(N + 1):
        f = Poly.one(QQ)
        for z in pts:
            if rng.random() < 0.45:
                f = f * (x - z)
        T.append(f)
    t = FertileTuple(QQ, tuple([Poly.one(QQ)] * N), tuple(T), tuple(pts))
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(1, N)
        try:
            t, _, _ = mutate(t, i)
        except WroncritError:
            return None       # rare ladder corner; caller draws again
        if max(p.degree() for p in t.y) > 6:
            break
    return t


def predicted_tables(t):
    """Closed forms: c_i at infinity and e_i(z) at each marked point."""
    cs, es = [], {}
    for i in range(1, t.N + 2):
        ci = (i - 1 + t.y_at(i).degree() - t.y_at(i - 1).degree()
              + sum(t.T[j].degree() for j in range(i)))
        cs.append(ci)
    for z in t.points:
        es[z] = tuple(i - 1 + sum(ord_at(t.T[j], z) for j in range(i))
                      for i in range(1, t.N + 2))
    return tuple(cs), es


def test_exponent_formulas_on_grown_tuples():
    rng = random.Random(2025)
    done = 0
    while done < 25:
        t = random_grown_tuple(rng)
        if t is None:
            continue
        space = build_space(t)
        cs, es = predicted_tables(t)
        assert space.infinity_exponents == cs
        assert exponents_at_infinity(space.basis) == tuple(sorted(cs))
        for z, etab in space.finite_exponents:
            assert etab == es[z]
            assert exponents_at(space.basis, z) == etab
        for i in range(1, t.N + 1):
            q_witness(space, i)   # Wr(y_i, Q_i) = T_i y_{i-1} y_{i+1}, exactly
        done += 1


def test_wronskian_family_factorization():
    # Wr(u_1..u_i) = kappa_i K_i y_i with constant kappa_i
    rng = random.Random(77)
    done = 0
    while done < 10:
        t = random_grown_tuple(rng)
        if t is None:
            continue
        space = build_space(t)
        for i in range(1, t.N + 2):
            expect = space.source.K[i] * t.y_at(i) * Poly.constant(QQ, space.kappa[i - 1])
            assert space.wronskians[i - 1] == expect
        done += 1


# -- the exact layer reads what it holds -----------------------------------------

def reference_report(t):
    """is_fertile with a gcd per (y_i, T_j): the predicate the marked points replace."""
    passed, failures = [], []

    def note(ok, good, bad):
        (passed if ok else failures).append(good if ok else bad)

    for i in range(1, t.N + 1):
        yi = t.y_at(i)
        sqfree = is_squarefree(yi)
        note(sqfree, f"y_{i} square free", f"y_{i} has a multiple root")
        for j, Tj in enumerate(t.T):
            if yi.degree() > 0 and Tj.degree() > 0:
                note(gcd_monic(yi, Tj).degree() == 0, f"y_{i} avoids roots of T_{j}",
                     f"y_{i} shares a root with T_{j}")
        if i < t.N:
            ynext = t.y_at(i + 1)
            ok = (yi.degree() <= 0 or ynext.degree() <= 0
                  or gcd_monic(yi, ynext).degree() == 0)
            note(ok, f"y_{i} coprime to y_{i + 1}", f"y_{i} and y_{i + 1} share a root")
        if sqfree:
            ok = yi.degree() <= 0 or divides(yi, wronskian_pair(yi.deriv(), t.rhs(i)))
            note(ok, f"y_{i} divides Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})",
                 f"y_{i} does not divide Wr(y_{i}', T_{i} y_{i - 1} y_{i + 1})")
        else:
            failures.append(f"divisibility for y_{i} skipped (not square free)")
    return FertilityReport(not failures, tuple(passed), tuple(failures))


def _linear_product(roots, extra):
    x = Poly.x(QQ)
    f = Poly.from_roots(QQ, [Fraction(r) for r in roots])
    return f * (x ** 2 + 1) if extra else f


@st.composite
def drawn_tuples(draw):
    """Weights split over drawn points; y_i drawn freely, so most are not fertile."""
    N = draw(st.integers(1, 3))
    pts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    T = tuple(_linear_product([z for z in pts for _ in range(draw(st.integers(0, 2)))], False)
              for _ in range(N + 1))
    y = tuple(_linear_product(draw(st.lists(st.integers(-4, 4), max_size=3)), draw(st.booleans()))
              for _ in range(N))
    return FertileTuple(QQ, y, T, tuple(Fraction(z) for z in pts))


@settings(max_examples=150, deadline=None)
@given(drawn_tuples())
def test_fertility_report_matches_gcd_reference(t):
    assert is_fertile(t) == reference_report(t)


@st.composite
def growth_plans(draw):
    """N, marked points, the roots of each T_j among them, and mutation directions."""
    N = draw(st.integers(1, 3))
    pts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    roots = [draw(st.lists(st.sampled_from(pts), unique=True)) for _ in range(N + 1)]
    return N, pts, roots, draw(st.lists(st.integers(1, N), min_size=1, max_size=3))


@settings(max_examples=25, deadline=None)
@given(growth_plans())
@example((1, [0, 1], [[0], [1]], [1]))   # -x(x-2)/2 at c = 0 vanishes at the root of T_0
def test_mutate_picks_the_reference_ladder_constant(plan):
    # grow from the all-ones tuple; each step's constant is the one generic_candidate
    # picks when told to avoid every T_j and both neighbours
    N, pts, roots, directions = plan
    T = tuple(_linear_product(r, False) for r in roots)
    t = FertileTuple(QQ, (Poly.one(QQ),) * N, T, tuple(Fraction(z) for z in pts))
    for i in directions:
        yi = t.y_at(i)
        avoid = list(t.T) + [t.y_at(i - 1), t.y_at(i + 1)]
        cand, want = generic_candidate(solve(yi, t.rhs(i)).particular, yi,
                                       avoid_roots_of=avoid)
        try:
            t, _, c = mutate(t, i)
        except NotFertile:
            # a rare ladder corner: then the reference member is not fertile either
            ref = FertileTuple(QQ, t.y[:i - 1] + (cand.monic(),) + t.y[i:], t.T, t.points)
            assert not is_fertile(ref).ok
            return
        assert c == want
        if max(p.degree() for p in t.y) > 6:
            break


@settings(max_examples=25, deadline=None)
@given(growth_plans())
@example((1, [0, 1], [[0], [1]], [1]))
@example((3, [-1, 0, 1], [[0], [1], [-1], [0, 1]], [2, 1, 3]))
def test_threaded_report_equals_full_check(plan):
    # each mutation starts from the report its parent carries, as in a cascade
    N, pts, roots, directions = plan
    T = tuple(_linear_product(r, False) for r in roots)
    t = FertileTuple(QQ, (Poly.one(QQ),) * N, T, tuple(Fraction(z) for z in pts))
    assert t.verified is None
    for i in directions:
        try:
            t, _, _ = mutate(t, i)
        except NotFertile:
            return
        report = t.verified
        full = is_fertile(t)
        assert report == full == reference_report(t)
        assert report.levels == full.levels
        if max(p.degree() for p in t.y) > 6:
            break


@pytest.mark.parametrize("ring", [QQ, make_extension("x^2+x+1")], ids=["QQ", "Q(omega)"])
def test_build_space_tests_square_freeness_only_on_its_source(ring, monkeypatch):
    # a mutation takes the square-free verdicts from generic_candidate and from
    # its parent's report, so only the source tuple's check takes them
    one = ring.one()
    pts = (ring.zero(), one, -one) if ring is QQ else (one, ring.gen, -one - ring.gen)
    x = Poly.x(ring)
    T = (x - pts[0], x - pts[1], x - pts[2], (x - pts[0]) * (x - pts[1]))
    t = FertileTuple(ring, (Poly.one(ring),) * 3, T, pts)
    for i in (1, 2, 3, 2):
        t = mutate(t, i)[0]
    calls = []
    real = reproduction.is_squarefree
    monkeypatch.setattr(reproduction, "is_squarefree", lambda f: calls.append(f) or real(f))
    t = FertileTuple(ring, t.y, T, pts)     # freshly built: it carries no report
    space = build_space(t)
    assert theta(space) == t.y
    assert len(calls) == t.N == 3
    assert t.verified is None      # build_space keeps no report on its argument


def test_mutate_builds_the_right_side_only_for_changed_neighbours(monkeypatch):
    # the target T_i y_{i-1} y_{i+1} serves the new y_i's divisibility check;
    # levels i-1 and i+1, whose neighbour y_i changed, build their own
    one = Poly.one(QQ)
    T = (P("x"), P("x-1"), P("x+1"), P("x^2-x"))
    t = FertileTuple(QQ, (one,) * 3, T, (Fraction(0), Fraction(1), Fraction(-1)))
    t = t._with(verified=is_fertile(t))
    calls = []
    rhs = FertileTuple.rhs
    monkeypatch.setattr(FertileTuple, "rhs", lambda self, i: calls.append(i) or rhs(self, i))
    for i, want in ((1, [1, 2]), (2, [2, 1, 3]), (3, [3, 2]), (2, [2, 1, 3])):
        calls.clear()
        child = mutate(t, i)[0]
        assert calls == want
        assert child.verified == is_fertile(child) and child.verified.ok
        t = child


def test_mutate_of_an_infertile_parent_names_every_failure():
    one = Poly.one(QQ)
    t = FertileTuple(QQ, (one, P("x^2-4*x+4"), P("x")), (one, one, P("x"), one),
                     (Fraction(0),))
    want = ("mutation in direction 1: not fertile: y_2 has a multiple root; "
            "divisibility for y_2 skipped (not square free); y_3 shares a root with T_2; "
            "y_3 does not divide Wr(y_3', T_3 y_2 y_4)")
    for parent in (t, t._with(verified=is_fertile(t))):
        with pytest.raises(NotFertile) as err:
            mutate(parent, 1)
        assert str(err.value) == want


def test_build_space_expands_its_flag_once(monkeypatch):
    # Wr(u_1..u_i) for every i comes from one expansion of the basis
    one = Poly.one(QQ)
    t = FertileTuple(QQ, (one, one), (P("x"), P("x-1"), P("x+1")),
                     (Fraction(0), Fraction(1), Fraction(-1)))
    t = mutate(mutate(t, 1)[0], 2)[0]
    calls = []
    for name in ("wronskian", "partial_wronskians"):
        real = getattr(reproduction, name)
        monkeypatch.setattr(reproduction, name,
                            lambda polys, real=real, name=name: calls.append(name) or real(polys))
    space = build_space(t)
    assert calls == ["partial_wronskians"]
    assert space.wronskians == tuple(wronskian(space.basis[:i])
                                     for i in range(1, len(space.basis) + 1))


def test_theta_makes_no_wronskian(monkeypatch):
    space = build_space(cuberoots_tuple())
    calls = []
    for name in ("wronskian", "partial_wronskians"):
        real = getattr(reproduction, name)
        monkeypatch.setattr(reproduction, name,
                            lambda polys, real=real: calls.append(1) or real(polys))
    assert theta(space) == space.source.y
    assert calls == []


def test_fertility_and_mutation_take_no_gcd_with_a_weight(monkeypatch):
    one = Poly.one(QQ)
    t = FertileTuple(QQ, (one, one), (P("x"), P("x-1"), P("x+1")),
                     (Fraction(0), Fraction(1), Fraction(-1)))
    t = mutate(mutate(t, 1)[0], 2)[0]
    args = []

    def recording(real):
        return lambda f, g: args.append((f, g)) or real(f, g)

    for mod in (reproduction, wronskian_eq):
        monkeypatch.setattr(mod, "gcd_monic", recording(mod.gcd_monic))
    assert is_fertile(t).ok
    mutate(t, 1)
    assert args       # the neighbour and square-free tests still take gcds
    assert not any(p in t.T for pair in args for p in pair)


# -- exponents read off the partial Wronskians ------------------------------------

OMEGA = make_extension("x^2+x+1")
SQRT3 = make_extension("x^2-3")


def _marked_points(ring):
    if ring is QQ:
        return (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
    w = ring.gen
    return (ring.zero(), ring.one(), w, -ring.one() - w)


@st.composite
def prefix_bases(draw):
    """A basis over QQ or Q(omega), each element a product of (x - z) over
    drawn marked points (with multiplicity) and a drawn cofactor, so points
    are roots of basis elements, degrees repeat and flags are not generic."""
    ring = draw(st.sampled_from([QQ, OMEGA]))
    pts = _marked_points(ring)
    coeff = st.integers(-2, 2)
    if ring is not QQ:
        coeff = st.tuples(coeff, coeff).map(lambda ab: ring.coerce(ab[0]) + ab[1] * ring.gen)
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        roots = draw(st.lists(st.sampled_from(pts), max_size=3))
        cofactor = Poly(ring, draw(st.lists(coeff, min_size=1, max_size=4)))
        basis.append(Poly.from_roots(ring, roots) * cofactor)
    return ring, pts, tuple(basis)


def _prefix_sets(added):
    return [tuple(sorted(added[:i])) for i in range(1, len(added) + 1)]


@settings(max_examples=150, deadline=None)
@given(prefix_bases())
@example((QQ, _marked_points(QQ), (P("x^2"), P("x^2+x"), P("x^2+1"))))
@example((QQ, _marked_points(QQ), (P("x^3-x^2"), P("x^2-x"), P("x^4-x^3"))))
@example((OMEGA, _marked_points(OMEGA),
          tuple(Poly.from_roots(OMEGA, [OMEGA.gen] * k) for k in (2, 0, 3))))
def test_wronskian_exponents_equal_the_echelon_readers(case):
    # ord_z Wr(E_i) = e_1 + ... + e_i - i(i-1)/2, and the same with degrees at
    # infinity, for every prefix E_i = span(basis[:i]) of an independent basis
    ring, pts, basis = case
    wrs = partial_wronskians(basis)
    assume(not any(W.is_zero() for W in wrs))
    at_inf = reproduction._added_exponents([W.degree() for W in wrs])
    assert _prefix_sets(at_inf) == [exponents_at_infinity(basis[:i])
                                    for i in range(1, len(basis) + 1)]
    for z in pts:
        at_z = reproduction._added_exponents([ord_at(W, z) for W in wrs])
        assert _prefix_sets(at_z) == [exponents_at(basis[:i], z)
                                      for i in range(1, len(basis) + 1)]


def _verification_message(t):
    with pytest.raises(VerificationFailed) as err:
        build_space(t)
    return str(err.value)


def test_build_space_names_a_wrong_finite_table(monkeypatch):
    # every order of a weight reads one too high, so the tables say e_1(1) = 1
    t = cuberoots_tuple()
    real = reproduction.ord_at
    monkeypatch.setattr(reproduction, "ord_at",
                        lambda f, z: real(f, z) + any(f is Tj for Tj in t.T))
    assert _verification_message(t) == "exponents of E_1 at 1: (0,), table says (1,)"


def test_build_space_names_a_wrong_infinity_table(monkeypatch):
    w = reproduction.infinity_labels([1], [0, 3])[1]
    monkeypatch.setattr(reproduction, "infinity_labels", lambda l, degs: ((2, 3), w))
    assert (_verification_message(cuberoots_tuple())
            == "exponents of E_1 at infinity: (1,), table says (2,)")


def test_build_space_names_a_colliding_degree_table(monkeypatch):
    w = reproduction.infinity_labels([1], [0, 3])[1]
    monkeypatch.setattr(reproduction, "infinity_labels", lambda l, degs: ((1, 1), w))
    assert _verification_message(cuberoots_tuple()) == "degree table [1, 1] collides"


@pytest.mark.parametrize("replacement, message", [
    ("x^3 + 3", "Wr(u_1..u_2) is not a multiple of K_2 y_2"),
    # Wr(x, x^5 - 4x^2) = 4x^2 (x^3 - 1)
    ("x^5 - 4*x^2", "Wr(u_1..u_2) / (K_2 y_2) has positive degree 2"),
])
def test_build_space_names_a_wrong_wronskian(replacement, message, monkeypatch):
    # the cascade's last entry is replaced, so u_2 is no longer x^3 + 2
    real = reproduction.mutate

    def wrong(t, i):
        child, ytilde, c = real(t, i)
        return child._with(y=(parse_poly(replacement, t.ring),)), ytilde, c

    monkeypatch.setattr(reproduction, "mutate", wrong)
    assert _verification_message(cuberoots_tuple()) == message


def _flag_tuple(ring, N):
    # weights at three marked points, grown by the mutations 1, .., N, then 2
    one = ring.one()
    pts = (ring.zero(), one, -one) if ring is QQ else (one, ring.gen, -one - ring.gen)
    x = Poly.x(ring)
    T = (x - pts[0], x - pts[1], x - pts[2], (x - pts[0]) * (x - pts[1]))[:N + 1]
    t = FertileTuple(ring, (Poly.one(ring),) * N, T, pts)
    for i in (*range(1, N + 1), min(2, N)):
        t = mutate(t, i)[0]
    return FertileTuple(ring, t.y, T, pts)


def _refuse(*args, **kwargs):
    raise AssertionError("build_space shifted or row reduced")


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("ring", [QQ, OMEGA, SQRT3], ids=["QQ", "Q(omega)", "Q(sqrt3)"])
def test_build_space_neither_shifts_nor_row_reduces(ring, N, monkeypatch):
    t = _flag_tuple(ring, N)
    want = build_space(t)
    monkeypatch.setattr(Poly, "shift", _refuse)
    for mod in (field, ramification, multiplicity):
        monkeypatch.setattr(mod, "row_reduce", _refuse)
    for name in ("exponents_at", "exponents_at_infinity"):
        monkeypatch.setattr(reproduction, name, _refuse)
    space = build_space(t)
    assert space == want
    assert theta(space) == t.y
