"""Dense univariate polynomials and Wronskian determinants.

The Wronskian here puts higher derivatives in the top rows, so
Wr(f, g) = f'g - fg'.  Degree bookkeeping, division and the classical
determinant identities are checked on random exact inputs.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wroncrit import polyring
from wroncrit.errors import NotDivisible, NotMonic, ZeroInputs, ZeroPolynomial
from wroncrit.field import CC, QQ, DualRing, ExtElem, format_scalar, make_extension
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
    partial_wronskians,
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


# the float coordinates and coefficients of a report: signed zeros, units,
# exponents that print with a sign ("1e-05"), and real values as complex
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-05, -2.5e-07, 1e16, -3e+20, 0.5]),
                    st.floats(allow_nan=False, allow_infinity=False))
_CC_SCALARS = st.builds(complex, _FLOATS, st.one_of(st.just(0.0), st.just(-0.0), _FLOATS))


def _reference_format_scalar(x: complex) -> str:
    if x.imag == 0:
        return repr(x.real)
    return f"({x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j)"


def _reference_format_poly(f: Poly) -> str:
    # format_poly and _coeff_str on CC before their complex fast paths
    def coeff_str(c):
        s = _reference_format_scalar(c)
        neg = s.startswith("-") and not any(op in s[1:] for op in "+-")
        composite = any(op in (s[1:] if neg else s) for op in "+-") or "eps" in s
        if composite:
            return f"({s})", False
        return (s[1:] if neg else s), neg

    if f.is_zero():
        return "0"
    parts = []
    one = f.ring.one()
    for k in range(f.degree(), -1, -1):
        c = f.coeff(k)
        if not c:
            continue
        body, neg = coeff_str(c)
        if k == 0:
            term = body
        else:
            sym = "x" if k == 1 else f"x^{k}"
            if c == one:
                term, neg = sym, False
            elif c == -one:
                term, neg = sym, True
            else:
                term = f"{body}*{sym}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CC_SCALARS, max_size=6))
@example([complex(1e-05, 0.0), complex(-1.0, -0.0), complex(-0.0, 1.0), 1j, complex(1.0, 0.0)])
@example([complex(-2.5e-07, 0.0), complex(-1.0, 1e-05), -1j])
def test_cc_formatting_is_the_generic_formatting(cs):
    f = Poly(CC, cs)
    assert format_poly(f) == _reference_format_poly(f)
    assert [format_scalar(c) for c in cs] == [_reference_format_scalar(c) for c in cs]


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


def schoolbook_product(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def long_division(f, y):
    """Quotient and remainder coefficient lists, in Fractions."""
    rem, q = list(f), [Fraction(0)] * max(0, len(f) - len(y) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(y) - 1] / y[-1]
        for i, v in enumerate(y):
            rem[k + i] -= q[k] * v
    return q, rem[:len(y) - 1]


def trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


# divisor leads that are fractional, negative, or both
leads = st.one_of(st.sampled_from([Fraction(-1), Fraction(-3, 4), Fraction(5, 3),
                                   Fraction(-7, 2), Fraction(1, 6)]),
                  fracs.filter(bool))


@given(polys, polys)
def test_qq_product_matches_schoolbook(f, g):
    prod = f * g
    assert prod.coeffs == trimmed(schoolbook_product(f.coeffs, g.coeffs))
    assert all(type(c) is Fraction for c in prod.coeffs)


@example(f=Poly(QQ, []), low=[Fraction(1, 2)], lead=Fraction(-3, 4))
@example(f=Poly(QQ, [1, 2]), low=[1, 1, 1], lead=Fraction(-1))
@given(polys, st.lists(fracs, max_size=4), leads)
def test_qq_div_rem_matches_long_division(f, low, lead):
    y = Poly(QQ, low + [lead])
    q, r = div_rem(f, y)
    assert q * y + r == f
    assert r.is_zero() or r.degree() < y.degree()
    want_q, want_r = long_division(f.coeffs, y.coeffs)
    assert q.coeffs == trimmed(want_q) and r.coeffs == trimmed(want_r)
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


def fraction_ruffini(cs, z):
    """Taylor coefficients at z of sum cs[k] x^k, by Ruffini passes on Fractions."""
    c = list(cs)
    out = []
    for i in range(len(c)):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = c[j] + z * c[j + 1]
        out.append(c[i])
    return out


@example(f=Poly(QQ, [Fraction(1, 2), 3, Fraction(-2, 3)]), z=Fraction(0))
@example(f=Poly(QQ, [Fraction(5, 4)]), z=Fraction(-7, 3))
@example(f=Poly(QQ, [1, 0, Fraction(1, 6), 2]), z=Fraction(3, 4))
@given(polys, fracs)
def test_qq_taylor_pass_matches_fraction_ruffini(f, z):
    want = fraction_ruffini(f.coeffs, z)
    got = list(f._taylor(z))
    assert got == want
    assert all(type(c) is Fraction for c in got)
    assert f.shift(z).coeffs == trimmed(want)
    if not f.is_zero():
        assert ord_at(f, z) == next(k for k, c in enumerate(want) if c)


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


# -- number-field kernels ------------------------------------------------------
#
# Products, division and Taylor passes over Q(a) run on integer coordinate
# rows; the references are the loops over ExtElem arithmetic.  The fields
# include minimal polynomials with fractional coefficients, which put a
# denominator on the table of powers.

NF_FIELDS = [make_extension(p) for p in
             ("x^2+x+1", "x^2-3", "x^3-2", "x^4+1", "x^2-1/2", "x^3-1/3*x+1/2")]
NF_IDS = ["a2+a+1", "a2-3", "a3-2", "a4+1", "a2-1/2", "a3-a/3+1/2"]


def nf_polys(K, max_size=5):
    return st.lists(_coeffs_in(K), max_size=max_size).map(lambda cs: Poly(K, cs))


def elem_product(f, g):
    K = f.ring
    out = [K.zero()] * max(0, len(f.coeffs) + len(g.coeffs) - 1)
    for i, u in enumerate(f.coeffs):
        for j, v in enumerate(g.coeffs):
            out[i + j] = out[i + j] + u * v
    return trimmed(out)


def elem_long_division(f, y):
    K = f.ring
    inv = K.inv(y.lead())
    rem, q = list(f.coeffs), [K.zero()] * max(0, len(f.coeffs) - y.degree())
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + y.degree()] * inv
        for i, v in enumerate(y.coeffs):
            rem[k + i] = rem[k + i] - q[k] * v
    return trimmed(q), trimmed(rem[:y.degree()])


@pytest.mark.parametrize("K", NF_FIELDS, ids=NF_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_number_field_product_and_division_match_element_loops(K, data):
    f, g = data.draw(nf_polys(K)), data.draw(nf_polys(K))
    assert (f * g).coeffs == elem_product(f, g)
    # monic, non-monic (a lead of -1 among them) and constant divisors, and
    # the zero dividend
    low = data.draw(st.lists(_coeffs_in(K), max_size=3))
    lead = data.draw(st.one_of(st.just(K.one()), _coeffs_in(K).filter(bool)))
    for y in (Poly(K, low + [lead]), Poly(K, [lead]), Poly(K, low + [-K.one()])):
        for dividend in (f, Poly.zero(K)):
            q, r = div_rem(dividend, y)
            assert (q.coeffs, r.coeffs) == elem_long_division(dividend, y)


@pytest.mark.parametrize("K", NF_FIELDS, ids=NF_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_number_field_taylor_and_calculus_match_element_loops(K, data):
    f = data.draw(nf_polys(K, 6))
    for z in (data.draw(_coeffs_in(K)), K.zero(), K.coerce(Fraction(-5, 3))):
        want = fraction_ruffini(f.coeffs, z)
        assert f.shift(z).coeffs == trimmed(want)
        if not f.is_zero():
            assert ord_at(f, z) == next(k for k, c in enumerate(want) if c)
    one = K.one()
    assert f.deriv().coeffs == trimmed([c * (one * i) for i, c in enumerate(f.coeffs)][1:])
    assert f.antideriv().coeffs == trimmed(
        [K.zero()] + [c * K.inv(one * (i + 1)) for i, c in enumerate(f.coeffs)])


def test_antiderivative_takes_no_inverse(monkeypatch):
    f = Poly(OMEGA, [OMEGA.gen, 3, Fraction(1, 2), OMEGA.gen - 1])
    want = f.antideriv()
    calls = []
    inv = type(OMEGA).inv
    monkeypatch.setattr(type(OMEGA), "inv", lambda self, v: calls.append(v) or inv(self, v))
    assert f.antideriv() == want and f.antideriv().deriv() == f
    assert calls == []


def test_exact_div_rejects_remainder():
    with pytest.raises(NotDivisible):
        exact_div(P("x^2+1"), P("x"))
    with pytest.raises(ZeroPolynomial):
        div_rem(P("x"), Poly.zero(QQ))


@given(nonzero_polys, nonzero_polys)
@example(Poly.zero(QQ), P("3*x^2-1"))      # the cofactor of f is 0
@example(P("3*x^2-1"), Poly.zero(QQ))      # the cofactor of g is 0
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


# -- the coprimality certificate of gcd_monic -----------------------------------
#
# gcd_monic returns 1 for a pair whose images modulo a prime are coprime with
# their leads intact, and runs the remainder sequence otherwise.  The
# reference is that sequence alone, by long division on ring elements.

CERT_RINGS = [QQ] + NF_FIELDS
CERT_IDS = ["QQ"] + NF_IDS


def prime_and_root(K):
    """The prime of K's images and the image of its generator (None over QQ)."""
    if K == QQ:
        return polyring._PRIMES[0], None
    p, rpow = polyring._field_root(K)
    return p, rpow[1]


def euclid_gcd(f, g):
    while not g.is_zero():
        f, g = g, Poly(f.ring, elem_long_division(f, g)[1])
    return Poly(f.ring, [c * f.ring.inv(f.lead()) for c in f.coeffs])


def count_divisions(monkeypatch):
    calls = []
    div = polyring.div_rem
    monkeypatch.setattr(polyring, "div_rem", lambda f, y: calls.append(y) or div(f, y))
    return calls


@pytest.mark.parametrize("K", NF_FIELDS, ids=NF_IDS)
def test_every_test_field_has_a_root_modulo_a_listed_prime(K):
    p, r = prime_and_root(K)
    assert p in polyring._PRIMES
    assert polyring._field_root(K)[1] == tuple(pow(r, t, p) for t in range(K.degree))
    value = sum(c * r ** i for i, c in enumerate(K.minpoly))
    assert value.numerator % p == 0 and value.denominator % p != 0


@pytest.mark.parametrize("K", CERT_RINGS, ids=CERT_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gcd_monic_matches_euclid(K, data):
    nonzero = nf_polys(K, 4).filter(lambda h: not h.is_zero())
    f, g, common = data.draw(nonzero), data.draw(nonzero), data.draw(nonzero)
    # a pair, mostly coprime, and the pair with a planted common factor
    for u, v in ((f, g), (f * common, g * common)):
        assert gcd_monic(u, v) == euclid_gcd(u, v)
    assert gcd_monic(f * common, g * common).degree() >= common.degree()
    # a planted double root
    h = f * common * common
    assert is_squarefree(h) == (euclid_gcd(h, h.deriv()).degree() == 0)
    if common.degree() > 0:
        assert not is_squarefree(h)


@pytest.mark.parametrize("K", CERT_RINGS, ids=CERT_IDS)
def test_a_coprime_pair_is_proved_without_division(K, monkeypatch):
    f = Poly(K, [1, 2, 0, 3])
    g = Poly(K, [Fraction(-1, 2), 1, 1])
    calls = count_divisions(monkeypatch)
    assert gcd_monic(f, g) == Poly.one(K) and is_squarefree(f)
    assert calls == []


@pytest.mark.parametrize("K", CERT_RINGS, ids=CERT_IDS)
def test_a_root_shared_at_a_lead_that_vanishes_mod_p_is_found(K):
    # p x - 1 vanishes mod p, so the images of the two products are the
    # coprime x - 2 and x - 3; the lead check sends them down the exact path
    p, _ = prime_and_root(K)
    lin = Poly(K, [-1, p])
    f, g = lin * Poly(K, [-2, 1]), lin * Poly(K, [-3, 1])
    assert gcd_monic(f, g) == Poly(K, [Fraction(-1, p), 1])
    assert not is_squarefree(lin * lin * Poly(K, [-2, 1]))


@pytest.mark.parametrize("K", CERT_RINGS, ids=CERT_IDS)
def test_a_coprime_pair_with_a_common_root_mod_p_takes_the_exact_path(K, monkeypatch):
    # x and x - p share the root 0 mod p; over Q(a), x - a and x - r share
    # the image r of a
    p, r = prime_and_root(K)
    f, g = (Poly(K, [0, 1]), Poly(K, [-p, 1])) if r is None else \
        (Poly(K, [-K.gen, 1]), Poly(K, [-r, 1]))
    calls = count_divisions(monkeypatch)
    assert gcd_monic(f, g) == Poly.one(K)
    assert calls


def test_a_field_without_a_root_mod_the_primes_takes_the_exact_path(monkeypatch):
    # x^2 + x + 1 has no root modulo 1000037, which is 2 mod 3
    monkeypatch.setattr(polyring, "_PRIMES", (1000037,))
    monkeypatch.setattr(polyring, "_ROOTS_MOD_P", {})
    K = NF_FIELDS[0]
    assert polyring._field_root(K) is None
    calls = count_divisions(monkeypatch)
    assert gcd_monic(Poly(K, [1, 2, 0, 3]), Poly(K, [-K.gen, 1])) == Poly.one(K)
    assert calls


@pytest.mark.parametrize("K", CERT_RINGS, ids=CERT_IDS)
def test_a_lead_divisible_by_p_takes_the_exact_path(K, monkeypatch):
    p, _ = prime_and_root(K)
    lead = K.coerce(p) if K == QQ else K.gen * p
    calls = count_divisions(monkeypatch)
    assert gcd_monic(Poly(K, [1, 0, lead]), Poly(K, [1, 1])) == Poly.one(K)
    assert calls


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


# partial_wronskians reads Wr(f_1..f_i) off one expansion of the whole flag;
# the references are each prefix's own matrix (wronskian) and the Leibniz sum
# over permutations, with ring arithmetic only, so the dual ring is covered

FLAG_RINGS = [QQ] + [make_extension(p) for p in ("x^2+x+1", "x^2-3", "x^3-2")] + [DualRing(QQ)]
FLAG_IDS = ["QQ", "a2+a+1", "a2-3", "a3-2", "QQ[eps]"]


def _flag_coeffs(ring):
    if isinstance(ring, DualRing):
        return st.tuples(fracs, fracs).map(
            lambda ab: ring.coerce(ab[0]) + ring.coerce(ab[1]) * ring.eps)
    return _coeffs_in(ring)


def leibniz_wronskian(fs):
    # sum over permutations of the signed products of the derivative matrix,
    # row r holding the (k-1-r)-th derivatives
    k, ring = len(fs), fs[0].ring
    total = Poly.zero(ring)
    for perm in itertools.permutations(range(k)):
        term = Poly.one(ring)
        for r, c in enumerate(perm):
            term = term * fs[c].deriv(k - 1 - r)
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = total - term if odd else total + term
    return total


@pytest.mark.parametrize("ring", FLAG_RINGS, ids=FLAG_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_partial_wronskians_are_the_prefix_wronskians(ring, data):
    poly = st.lists(_flag_coeffs(ring), max_size=5).map(lambda cs: Poly(ring, cs))
    fs = data.draw(st.lists(poly, min_size=1, max_size=4))
    wrs = partial_wronskians(fs)
    assert len(wrs) == len(fs)
    for i, w in enumerate(wrs, start=1):
        assert w == wronskian(fs[:i]) == leibniz_wronskian(fs[:i])


def test_partial_wronskians_guards():
    with pytest.raises(ZeroInputs):
        partial_wronskians([])
    assert partial_wronskians([P("x^2+1")]) == (P("x^2+1"),)
    assert partial_wronskians([P("1"), P("x"), P("x^2")]) == (P("1"), P("-1"), P("-2"))


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
