"""Dense univariate polynomials and Wronskian determinants.

The Wronskian here puts higher derivatives in the top rows, so
Wr(f, g) = f'g - fg'.  Degree bookkeeping, division and the classical
determinant identities are checked on random exact inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wroncrit.errors import NotDivisible, NotMonic, ZeroInputs, ZeroPolynomial
from wroncrit.field import QQ, DualRing, ExtElem, make_extension
from wroncrit.polyring import (
    Poly,
    div_rem,
    divides,
    exact_div,
    format_poly,
    gcd_monic,
    is_squarefree,
    ord_at,
    parse_poly,
    wronskian,
    wronskian_pair,
    xgcd,
)

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=6)
polys = st.lists(fracs, min_size=0, max_size=6).map(lambda cs: Poly(QQ, cs))
nonzero_polys = polys.filter(lambda f: not f.is_zero())


def P(s):
    return parse_poly(s, QQ)


# -- construction and printing -----------------------------------------------

def test_constructors():
    assert Poly.x(QQ) == P("x")
    assert Poly.monomial(QQ, Fraction(3), 2) == P("3*x^2")
    assert Poly.from_roots(QQ, [1, 2]) == P("x^2-3*x+2")


@pytest.mark.parametrize("ring", [QQ, make_extension("x^2+x+1")], ids=["QQ", "Q(omega)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_roots_is_the_product_of_linear_factors(ring, data):
    # the in-place coefficient pass against Poly.__mul__, repeated roots included
    roots = data.draw(st.lists(_coeffs_in(ring), max_size=5))
    roots += roots[:data.draw(st.integers(0, len(roots)))]
    prod = Poly.one(ring)
    for r in roots:
        prod = prod * Poly(ring, [-r, ring.one()])
    assert Poly.from_roots(ring, roots) == prod
    assert Poly.from_roots(ring, []) == Poly.one(ring)


# format_poly prints a bare multiple of the generator without parentheses
# (x^2 - a, 2*a*x, 3*a^2*x^2), and parse_poly must read it back
ROUNDTRIP_RINGS = (QQ, make_extension("x^2-3"), make_extension("x^2+x+1"),
                   make_extension("x^3-2"))


def _coeffs_in(ring):
    if ring == QQ:
        return fracs
    # zeros are drawn often: single-monomial coefficients are the forms under test
    sparse = st.one_of(fracs, st.just(Fraction(0)))
    return st.lists(sparse, min_size=ring.degree, max_size=ring.degree).map(
        lambda cs: ExtElem(ring, cs))


@given(st.sampled_from(ROUNDTRIP_RINGS).flatmap(
    lambda ring: st.lists(_coeffs_in(ring), max_size=6).map(lambda cs: Poly(ring, cs))))
def test_parse_format_roundtrip(f):
    assert parse_poly(format_poly(f), f.ring) == f


def test_eval_shift():
    f = P("x^2+1")
    assert f(Fraction(2)) == 5
    assert f.shift(1) == P("x^2+2*x+2")   # f(x + 1)


OMEGA = make_extension("x^2+x+1")


@given(st.sampled_from([QQ, OMEGA]).flatmap(lambda ring: st.tuples(
    st.lists(_coeffs_in(ring), max_size=6).map(lambda cs: Poly(ring, cs)),
    st.one_of(st.just(ring.zero()), _coeffs_in(ring)))))
@example((Poly.zero(QQ), Fraction(2)))
@example((Poly.constant(QQ, 3), Fraction(2)))
@example((Poly.zero(OMEGA), OMEGA.gen))
@example((Poly.constant(OMEGA, OMEGA.gen), OMEGA.gen))
def test_shift_is_composition_with_x_plus_z(fz):
    # the in-place synthetic division against f(x + z) by Poly arithmetic,
    # zero and constant polynomials and z = 0 included
    f, z = fz
    x_plus_z = Poly(f.ring, [z, f.ring.one()])
    want = Poly.zero(f.ring)
    for k, c in enumerate(f.coeffs):
        want = want + x_plus_z ** k * c
    assert f.shift(z) == want
    assert f.shift(z).shift(-z) == f


# -- division ----------------------------------------------------------------

@given(polys, nonzero_polys)
def test_div_rem_identity(f, y):
    q, r = div_rem(f, y)
    assert q * y + r == f
    assert r.is_zero() or r.degree() < y.degree()


@given(polys, nonzero_polys)
def test_exact_div_of_product(f, y):
    if f.is_zero():
        return
    assert exact_div(f * y, y) == f
    assert divides(y, f * y)


def test_div_rem_by_monic_takes_no_inverse(monkeypatch):
    # a monic divisor over Q(omega) needs no inverse of its lead; the result
    # agrees with the division by 2y, which does take one
    K = make_extension("x^2+x+1")
    a, one, two = K.gen, K.one(), K.coerce(2)
    f = Poly(K, [3 * one, one, 0 * one, two - a, 0 * one, a])
    y = Poly(K, [-one, a, one])
    q2, r2 = div_rem(f, y * two)
    calls = []
    inv = type(K).inv
    monkeypatch.setattr(type(K), "inv", lambda self, v: calls.append(v) or inv(self, v))
    q, r = div_rem(f, y)
    assert calls == []
    assert q == q2 * two and r == r2
    assert q * y + r == f and r.degree() < y.degree()


def test_exact_div_rejects_remainder():
    with pytest.raises(NotDivisible):
        exact_div(P("x^2+1"), P("x"))
    with pytest.raises(ZeroPolynomial):
        div_rem(P("x"), Poly.zero(QQ))


@given(nonzero_polys, nonzero_polys)
def test_xgcd_bezout(f, g):
    d, u, v = xgcd(f, g)
    assert u * f + v * g == d
    assert d.is_monic()
    assert divides(d, f) and divides(d, g)
    assert gcd_monic(f, g) == d


def test_gcd_monic_matches_xgcd_and_guards():
    omega = make_extension("x^2+x+1")
    w = omega.gen
    lin = Poly(omega, [-w, 1])                       # x - w
    f = lin * Poly(omega, [2, 0, 1])
    g = lin * Poly(omega, [2, w])
    assert gcd_monic(f, g) == xgcd(f, g)[0] == lin
    with pytest.raises(NotMonic):
        gcd_monic(Poly(DualRing(QQ), [1, 1]), Poly(DualRing(QQ), [1]))
    with pytest.raises(ZeroInputs):
        gcd_monic(Poly.zero(QQ), Poly.zero(QQ))


def test_squarefree_detector():
    assert is_squarefree(P("x^2-1"))
    assert not is_squarefree(P("x^2-2*x+1"))
    assert is_squarefree(P("5"))


# -- order of vanishing ------------------------------------------------------

def test_ord_at():
    f = P("x^2") * P("x-1")
    assert ord_at(f, 0) == 2
    assert ord_at(f, 1) == 1
    assert ord_at(f, 2) == 0


def ord_by_division(f, z):
    """Reference: divide by x - z until a remainder is nonzero."""
    lin = Poly(f.ring, [-f.ring.coerce(z), f.ring.one()])
    n = 0
    while True:
        q, r = div_rem(f, lin)
        if not r.is_zero():
            return n
        f, n = q, n + 1


@given(st.sampled_from([QQ, OMEGA]).flatmap(lambda ring: st.tuples(
    st.lists(_coeffs_in(ring), min_size=1, max_size=4).map(lambda cs: Poly(ring, cs))
    .filter(lambda g: not g.is_zero()),
    st.one_of(st.just(ring.zero()), _coeffs_in(ring)),
    st.integers(0, 4),
    st.booleans())))
@example((Poly.constant(QQ, 3), Fraction(2), 0, True))
@example((Poly.constant(OMEGA, OMEGA.gen), OMEGA.gen, 3, True))
@example((Poly.x(OMEGA) - OMEGA.gen, OMEGA.gen, 2, True))
@example((P("x^2+1"), Fraction(1), 0, False))
def test_ord_at_matches_repeated_division(case):
    # g (x - z)^m has order m + ord(g) at z; a shifted point is mostly a non-root
    g, z, m, at_root = case
    lin = Poly(g.ring, [-z, g.ring.one()])
    f = g * lin ** m
    p = z if at_root else z + g.ring.one()
    assert ord_at(f, p) == ord_by_division(f, p)
    if at_root:
        assert ord_at(f, z) == m + ord_at(g, z)


def test_ord_at_zero_polynomial():
    for ring in (QQ, OMEGA):
        with pytest.raises(ZeroPolynomial):
            ord_at(Poly.zero(ring), ring.one())


# -- Wronskians --------------------------------------------------------------

def test_wronskian_sign_convention():
    # rows carry derivatives top-down, so Wr(f, g) = f'g - f g'
    assert wronskian_pair(P("x"), P("1")) == P("1")
    assert wronskian_pair(P("1"), P("x")) == P("-1")
    assert wronskian_pair(P("x"), P("x^3+2")) == P("-2*x^3+2")


@given(polys, polys)
def test_wronskian_pair_equals_general(f, g):
    assert wronskian([f, g]) == wronskian_pair(f, g)


@given(polys, polys)
def test_wronskian_antisymmetry(f, g):
    assert wronskian_pair(f, g) == -wronskian_pair(g, f)
    assert wronskian_pair(f, f).is_zero()


@given(polys, polys, fracs)
def test_wronskian_bilinearity(f, g, c):
    h = g * Poly.constant(QQ, c)
    assert wronskian_pair(f, g + h) == wronskian_pair(f, g) + wronskian_pair(f, h)


@given(polys, polys, polys)
def test_wronskian_scaling_rule(f, g, k):
    # multiplying both entries by K picks up K^2
    assert wronskian_pair(f * k, g * k) == wronskian_pair(f, g) * k * k


@settings(max_examples=80)
@given(polys, polys, polys)
def test_wronskian_three_term_rule(f, p, q):
    # Wr(f,P)*Q - Wr(f,Q)*P = Wr(Q,P)*f
    lhs = wronskian_pair(f, p) * q - wronskian_pair(f, q) * p
    assert lhs == wronskian_pair(q, p) * f


@settings(max_examples=80)
@given(polys, polys, polys)
def test_jacobi_composition_order_2(u1, u2, u3):
    # Wr(Wr(u1,u2), Wr(u1,u3)) = u1 * Wr(u1,u2,u3)
    lhs = wronskian_pair(wronskian_pair(u1, u2), wronskian_pair(u1, u3))
    assert lhs == u1 * wronskian([u1, u2, u3])


@settings(max_examples=40)
@given(polys, polys, polys, polys)
def test_jacobi_composition_order_3(u1, u2, u3, u4):
    lhs = wronskian_pair(wronskian([u1, u2, u3]), wronskian([u1, u2, u4]))
    assert lhs == wronskian_pair(u1, u2) * wronskian([u1, u2, u3, u4])


def test_wronskian_three_functions():
    f, g, h = P("1"), P("x"), P("x^2")
    # constant Vandermonde: derivatives of 1, x, x^2 -> det = -2 under the
    # descending-row layout (odd permutation of the ascending one)
    assert wronskian([f, g, h]) == P("-2")


@given(nonzero_polys, nonzero_polys)
def test_wronskian_degree_bound(f, g):
    w = wronskian_pair(f, g)
    bound = f.degree() + g.degree() - 1
    if f.degree() != g.degree():
        assert w.degree() == max(bound, 0)
    elif not w.is_zero():
        assert w.degree() <= bound


def test_extension_coefficients():
    K = make_extension("x^2+x+1")
    w = K.gen
    f = Poly(K, [w, K.one()])          # x + w
    g = Poly(K, [K.one(), K.zero(), K.one()])  # x^2 + 1
    # f'g - fg' = (x^2+1) - (x+w)(2x) = -x^2 - 2wx + 1
    assert wronskian_pair(f, g) == Poly(K, [K.one(), -2 * w, -K.one()])
