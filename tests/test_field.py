"""Scalar arithmetic: rationals, number fields, dual numbers, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wroncrit.errors import NotIrreducible, NotMonic, ParseError, WroncritError
from wroncrit.field import (
    CC,
    QQ,
    DualNum,
    DualRing,
    ExtElem,
    NumberField,
    common_ring,
    dual_lift,
    embed_scalar,
    format_scalar,
    is_irreducible,
    make_extension,
    parse_scalar,
    ring_of,
)

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)

OMEGA = make_extension("x^2+x+1")   # primitive cube root of unity
SQRT2 = make_extension("t^2-2")


def ext_elems(field):
    kd = field.degree
    return st.lists(fracs, min_size=kd, max_size=kd).map(lambda cs: ExtElem(field, cs))


# -- rational field protocol -------------------------------------------------

def test_qq_protocol():
    assert QQ.is_field
    assert QQ.zero() == 0 and QQ.one() == 1
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)
    assert not QQ.invertible(Fraction(0))


# -- number fields -----------------------------------------------------------

def test_omega_relations():
    w = OMEGA.gen
    assert w * w == -1 - w          # x^2 = -x - 1
    assert w ** 3 == OMEGA.one()
    assert OMEGA.eval_minpoly(w) == OMEGA.zero()


def test_sqrt2_inverse():
    r = SQRT2.gen
    x = r + 3
    assert x * SQRT2.inv(x) == SQRT2.one()
    # 1/(3 + sqrt2) = (3 - sqrt2)/7
    assert SQRT2.inv(x) == (3 - r) / 7


@given(ext_elems(OMEGA))
def test_omega_inverse_axiom(x):
    if x == OMEGA.zero():
        assert not OMEGA.invertible(x)
    else:
        assert x * OMEGA.inv(x) == OMEGA.one()


@given(ext_elems(OMEGA), ext_elems(OMEGA), ext_elems(OMEGA))
def test_omega_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


def test_irreducibility_gate():
    assert is_irreducible((Fraction(-2), Fraction(0), Fraction(1)))   # x^2-2
    assert not is_irreducible((Fraction(-1), Fraction(0), Fraction(1)))  # (x-1)(x+1)
    assert is_irreducible((Fraction(-2), Fraction(0), Fraction(0), Fraction(1)))  # x^3-2
    with pytest.raises(NotIrreducible):
        make_extension("x^2-1")
    with pytest.raises(NotMonic):
        make_extension("2*x^2+1")
    with pytest.raises(WroncritError):
        make_extension("x+1")     # degree 1 is not an extension
    # (x^2+1)(x^2+2) has no rational root: only the quadratic trial finds it
    assert not is_irreducible(tuple(Fraction(c) for c in (2, 0, 3, 0, 1)))
    assert is_irreducible(tuple(Fraction(c) for c in (1, 0, 0, 0, 1)))  # x^4+1
    split = NumberField((-1, 0, 1))     # x^2-1, built without the gate
    with pytest.raises(NotIrreducible):
        split.inv(split.gen - 1)


def test_complex_gen_is_a_root():
    g = OMEGA.complex_gen()
    assert abs(g * g + g + 1) < 1e-12
    assert abs(SQRT2.complex_gen() ** 2 - 2) < 1e-12


def test_complex_gen_computed_once(monkeypatch):
    import numpy as np

    calls = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or roots(p))
    fields = [NumberField((1, 1, 1)), NumberField((-3, 0, 1))]
    for field in fields:
        for k in range(5):
            embed_scalar(field.gen + k)
    assert len(calls) == len(fields)


# -- dual numbers ------------------------------------------------------------

def test_dual_square_zero():
    D = DualRing(QQ)
    assert D.eps * D.eps == D.zero()
    x = dual_lift(Fraction(2), Fraction(5))
    assert x * x == dual_lift(Fraction(4), Fraction(20))


@given(fracs, fracs, fracs, fracs)
def test_dual_product_rule(a, b, c, d):
    x, y = dual_lift(a, b), dual_lift(c, d)
    assert x * y == dual_lift(a * c, a * d + b * c)


@given(fracs, fracs)
def test_dual_inverse(a, b):
    D = DualRing(QQ)
    x = dual_lift(a, b)
    if a == 0:
        assert not D.invertible(x)
    else:
        assert x * D.inv(x) == D.one()
        assert D.inv(x) == dual_lift(1 / a, -b / a ** 2)


def test_dual_over_extension():
    D = DualRing(OMEGA)
    w = OMEGA.gen
    x = DualNum(D, w, OMEGA.one())
    assert x * x == DualNum(D, w * w, 2 * w)


# -- machine complex ring ----------------------------------------------------

def test_cc_coercion():
    assert CC.coerce(Fraction(1, 2)) == 0.5
    assert CC.coerce(OMEGA.gen) == pytest.approx(complex(-0.5, 3 ** 0.5 / 2))
    assert CC.inv(2j) == pytest.approx(-0.5j)
    assert not CC.invertible(0.0)


# -- parsing and formatting --------------------------------------------------

@given(fracs)
def test_scalar_roundtrip_rational(q):
    assert parse_scalar(format_scalar(q), QQ) == q


@given(ext_elems(OMEGA))
def test_scalar_roundtrip_extension(x):
    assert parse_scalar(format_scalar(x), OMEGA) == x


def test_parse_scalar_forms():
    assert parse_scalar("-1-a", OMEGA) == -1 - OMEGA.gen
    assert parse_scalar("a^2", OMEGA) == OMEGA.gen ** 2
    assert parse_scalar("1/2 + 3*a", OMEGA) == Fraction(1, 2) + 3 * OMEGA.gen
    d = parse_scalar("2+5*eps", DualRing(QQ))
    assert d == dual_lift(Fraction(2), Fraction(5))
    with pytest.raises(ParseError):
        parse_scalar("1+eps^2", DualRing(QQ))


def test_ring_of_and_common_ring():
    assert ring_of(Fraction(1)) is QQ
    assert ring_of(OMEGA.gen) == OMEGA
    assert ring_of(1.5) == CC and ring_of(2j) == CC
    assert common_ring(Fraction(1), OMEGA.gen) == OMEGA


def test_embed_scalar_is_a_homomorphism():
    w = OMEGA.gen
    x, y = 2 + 3 * w, w * w - 1
    assert embed_scalar(x * y) == pytest.approx(embed_scalar(x) * embed_scalar(y))
    assert embed_scalar(x + y) == pytest.approx(embed_scalar(x) + embed_scalar(y))
    assert embed_scalar(Fraction(3, 4)) == 0.75
