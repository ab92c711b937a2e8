"""Local multiplicity via Macaulay dual spaces.

The oracle is the full multiplication-matrix construction: the order-k dual
space is the null space of the matrix whose rows are all monomial multiples
x^beta f_i (|beta| < k) written over the monomials of degree <= k.  This
costs more than the closedness recursion under test but needs no recursion,
so the two agree only if both are right.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wroncrit.errors import NotARoot, NotASolution, NotIsolated, ZeroPolynomial
from wroncrit.field import QQ, ExtElem, make_extension
from wroncrit.multiplicity import (
    MPoly,
    MultivariateSystem,
    local_multiplicity,
    univariate_multiplicity,
)
from wroncrit.polyring import Poly, parse_poly


def P(s):
    return parse_poly(s, QQ)


def mp(nvars, terms):
    return MPoly(nvars, {tuple(k): Fraction(v) for k, v in terms.items()})


# -- oracle ---------------------------------------------------------------------

def monomials_upto(n, k):
    out = [m for m in itertools.product(range(k + 1), repeat=n) if sum(m) <= k]
    out.sort(key=lambda m: (sum(m), m))
    return out


def nullity(rows, ncols):
    """Rank-nullity over Q by straightforward elimination."""
    work = [list(r) for r in rows if any(v != 0 for v in r)]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] / pr[c]
                work[i] = [u - f * v for u, v in zip(work[i], pr)]
        rank += 1
    return ncols - rank


def oracle_multiplicity(polys, point, cap=12):
    """Stabilized dual-space dimension from the full Macaulay matrices."""
    n = polys[0].nvars
    shifted = [f.shift(point) for f in polys]
    for f in shifted:
        assert f.terms.get((0,) * n, 0) == 0, "point must solve the system"
    prev = 1
    for k in range(1, cap + 1):
        mons = monomials_upto(n, k)
        rows = []
        for beta in monomials_upto(n, k - 1):
            xb = MPoly(n, {tuple(beta): Fraction(1)})
            for f in shifted:
                g = xb * f
                rows.append([g.terms.get(m, 0) for m in mons])
        dim = nullity(rows, len(mons))
        if dim == prev:
            return dim
        prev = dim
    return None     # still growing at the cap


# -- pinned cases ---------------------------------------------------------------

def test_univariate_double_root():
    f = mp(1, {(2,): 3})         # 3t^2 at the origin
    res = local_multiplicity([f], [Fraction(0)])
    assert res.multiplicity == 2
    assert res.mode == "exact"
    assert res.trace == (1, 2, 2)


def test_square_of_maximal_ideal():
    sys_ = [mp(2, {(2, 0): 1}), mp(2, {(1, 1): 1}), mp(2, {(0, 2): 1})]
    res = local_multiplicity(sys_, [Fraction(0), Fraction(0)])
    assert res.multiplicity == 3
    assert oracle_multiplicity(sys_, [Fraction(0), Fraction(0)]) == 3


def test_simple_root_multiplicity_one():
    sys_ = [mp(2, {(1, 0): 1, (0, 2): 1}), mp(2, {(0, 1): 1})]   # x + y^2, y
    res = local_multiplicity(sys_, [Fraction(0), Fraction(0)])
    assert res.multiplicity == 1


def test_monomial_complete_intersections():
    # {x^a, y^b} cuts out a fat point of multiplicity a*b
    for a in (1, 2, 3):
        for b in (1, 2):
            sys_ = [mp(2, {(a, 0): 1}), mp(2, {(0, b): 1})]
            res = local_multiplicity(sys_, [Fraction(0)] * 2, max_order=a + b + 1)
            assert res.multiplicity == a * b
            assert oracle_multiplicity(sys_, [Fraction(0)] * 2) == a * b


def test_not_isolated_on_a_curve():
    with pytest.raises(NotIsolated):
        local_multiplicity([mp(2, {(1, 1): 1})], [Fraction(0)] * 2, max_order=6)


def test_not_a_solution():
    with pytest.raises(NotASolution):
        local_multiplicity([mp(1, {(0,): 1, (1,): 1})], [Fraction(0)])
    with pytest.raises(NotASolution):
        local_multiplicity([mp(1, {(0,): 1, (1,): 1}).map_coeffs(float)], [0.5])


# -- univariate agreement ---------------------------------------------------------

def test_univariate_shortcut():
    f = P("x^3-3*x^2+3*x-1")      # (x-1)^3
    assert univariate_multiplicity(f, Fraction(1)) == 3
    with pytest.raises(NotARoot):
        univariate_multiplicity(f, Fraction(2))


def test_univariate_refusals():
    # order 0 is NotARoot, over QQ and over Q(omega); the zero polynomial has no order
    K = make_extension("x^2+x+1")
    with pytest.raises(NotARoot, match="is not a root"):
        univariate_multiplicity(P("x^2+1"), 0)
    with pytest.raises(NotARoot, match="is not a root"):
        univariate_multiplicity(Poly.x(K) - K.gen, K.one())
    assert univariate_multiplicity((Poly.x(K) - K.gen) ** 2, K.gen) == 2
    with pytest.raises(ZeroPolynomial):
        univariate_multiplicity(Poly.zero(QQ), 0)


def test_univariate_agreement_random():
    rng = random.Random(31)
    for _ in range(40):
        p = Fraction(rng.randint(-4, 4))
        m = rng.randint(1, 4)
        q = P(f"x^2+{rng.randint(1, 9)}")      # no rational roots
        f = (Poly.x(QQ) - p) ** m * q
        if q.eval(p) == 0:
            continue
        assert univariate_multiplicity(f, p) == m
        g = MPoly.from_univariate(f, 0, 1)
        res = local_multiplicity([g], [p], max_order=m + 2)
        assert res.multiplicity == m


# -- exact/numeric agreement and the oracle on random systems ----------------------

def test_modes_agree():
    sys_ = [mp(2, {(2, 0): 1, (0, 1): 1}), mp(2, {(0, 2): 1})]   # x^2+y, y^2
    exact = local_multiplicity(sys_, [Fraction(0)] * 2)
    numeric = local_multiplicity([f.map_coeffs(complex) for f in sys_], [0j, 0j])
    assert exact.multiplicity == numeric.multiplicity == 4
    assert (exact.mode, numeric.mode) == ("exact", "numeric")
    assert exact.trace == numeric.trace


def test_oracle_agreement_random():
    rng = random.Random(32)
    done = 0
    while done < 20:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        f = mp(2, {(a, 0): 1, (rng.randint(0, 1), rng.randint(1, 2)): rng.randint(-3, 3)})
        g = mp(2, {(0, b): 1, (rng.randint(1, 2), rng.randint(0, 1)): rng.randint(-3, 3)})
        f.terms.pop((0, 0), None)
        g.terms.pop((0, 0), None)
        if not f.terms or not g.terms:
            continue
        try:
            res = local_multiplicity([f, g], [Fraction(0)] * 2, max_order=10)
        except NotIsolated:
            continue
        want = oracle_multiplicity([f, g], [Fraction(0)] * 2)
        assert want == res.multiplicity
        done += 1


# -- MPoly basics ------------------------------------------------------------------

def test_mpoly_shift_and_eval():
    f = mp(2, {(2, 0): 1, (1, 1): 2, (0, 0): 5})
    p = [Fraction(1), Fraction(-2)]
    g = f.shift(p)
    # constant term of the shift is the value at the point
    assert g.terms.get((0, 0), 0) == f.eval(p)
    assert f.eval([Fraction(2), Fraction(3)]) == 4 + 12 + 5


def test_mpoly_deriv():
    f = mp(2, {(2, 1): 3})
    assert f.deriv(0) == mp(2, {(1, 1): 6})
    assert f.deriv(1) == mp(2, {(2, 0): 3})
    assert f.deriv(0).deriv(1) == f.deriv(1).deriv(0)


def test_mpoly_rsub():
    x = MPoly.variable(1, 0)
    assert 3 - x == mp(1, {(0,): 3, (1,): -1})
    assert 3 - x == -(x - 3)


# -- the shift against substitution --------------------------------------------------

OMEGA = make_extension("x^2+x+1")
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
omega_elems = st.builds(lambda a, b: ExtElem(OMEGA, [a, b]), small_fractions, small_fractions)
complexes = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


def substituted(f, point):
    """f(x + p) by MPoly arithmetic: each x_i becomes x_i + p_i."""
    n = f.nvars
    moved = [MPoly.variable(n, i) + p for i, p in enumerate(point)]
    out = MPoly.zero(n)
    for e, c in f.terms.items():
        term = MPoly.constant(n, c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * moved[i]
        out = out + term
    return out


@st.composite
def poly_and_point(draw, coeffs):
    # sparse, in 1-3 variables; a degree bound of 0 leaves that variable out
    n = draw(st.integers(1, 3))
    exps = st.tuples(*(st.integers(0, d) for d in draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n))))
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    return MPoly(n, terms), draw(st.lists(coeffs, min_size=n, max_size=n))


@pytest.mark.parametrize("coeffs", [small_fractions, omega_elems], ids=["QQ", "Q(w)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shift_is_substitution_exactly(coeffs, data):
    f, p = data.draw(poly_and_point(coeffs))
    assert f.shift(p) == substituted(f, p)


@settings(max_examples=100, deadline=None)
@given(poly_and_point(complexes))
def test_shift_is_substitution_numerically(case):
    f, p = case
    got, want = f.shift(p), substituted(f, p)
    scale = max((abs(c) for c in want.terms.values()), default=0.0)
    # Below the normal range a product rounds to an absolute error of up to half a
    # subnormal ulp, and the later products by p scale it up like a unit coefficient:
    # 5e-324·x^2 shifted by 1.5 has the constant 1.125e-323, which rounds to 1e-323
    # or 1.5e-323 depending on the order of the operations.
    grow = 1 + max(abs(c) for c in p)
    floor = 8 * math.ulp(0.0) * sum(grow ** sum(e) for e in f.terms)
    for e in set(got.terms) | set(want.terms):
        assert abs(got.terms.get(e, 0) - want.terms.get(e, 0)) <= 1e-13 * scale + floor


@pytest.mark.parametrize("p", [[Fraction(1), Fraction(-2)], [0.5, -1j]], ids=["QQ", "CC"])
def test_shift_zero_and_constant(p):
    assert MPoly.zero(2).shift(p) == MPoly.zero(2)
    assert MPoly.constant(2, 3).shift(p).terms == {(0, 0): 3}
    # no variables at all: the box is a single entry, or empty
    assert MPoly.zero(0).shift(()) == MPoly.zero(0)
    assert MPoly.constant(0, Fraction(5)).shift(()) == MPoly.constant(0, Fraction(5))


def test_shift_one_variable():
    f = mp(1, {(3,): 1, (1,): 2})                 # x^3 + 2x at x + 1/2
    want = mp(1, {(3,): 1, (2,): Fraction(3, 2), (1,): Fraction(11, 4), (0,): Fraction(9, 8)})
    assert f.shift([Fraction(1, 2)]) == want
    got = f.map_coeffs(complex).shift([0.5])
    assert {e: complex(c) for e, c in want.terms.items()} == got.terms
