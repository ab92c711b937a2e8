"""Scalar arithmetic: rationals, number fields, dual numbers, parsing."""

import math
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
    row_reduce,
)
from wroncrit.polyring import Poly, div_rem, xgcd

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
    assert w * w + w + 1 == 0


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


# degree >= 3: products fold terms of degree n..2n-2 with more than one row
# of the table of powers a^n..a^(2n-2); polyring arithmetic over QQ is the
# reference for products and inverses
CUBE2 = make_extension("x^3-2")
ZETA8 = make_extension("x^4+1")


def poly_reference_product(x, y):
    _, r = div_rem(Poly(QQ, x.coeffs) * Poly(QQ, y.coeffs), Poly(QQ, x.field.minpoly))
    return ExtElem(x.field, r.coeffs)


@pytest.mark.parametrize("field", [CUBE2, ZETA8], ids=["a3-2", "a4+1"])
@settings(max_examples=60)
@given(data=st.data())
def test_structure_constants_match_poly_reference(field, data):
    x, y = data.draw(ext_elems(field)), data.draw(ext_elems(field))
    prod = x * y
    assert prod == poly_reference_product(x, y)
    assert len(prod.coeffs) == field.degree
    assert all(type(c) is Fraction for c in prod.coeffs)
    if x:
        g, s, _ = xgcd(Poly(QQ, x.coeffs), Poly(QQ, field.minpoly))
        assert g == Poly.one(QQ)
        assert field.inv(x) == ExtElem(field, s.coeffs)
        assert x * field.inv(x) == field.one()


def test_powers_of_generator_reduce():
    assert CUBE2.gen ** 3 == 2 and CUBE2.gen ** 4 == 2 * CUBE2.gen
    assert ZETA8.gen ** 4 == -1 and ZETA8.gen ** 6 == -ZETA8.gen ** 2
    assert ZETA8.gen ** 8 == 1


def test_extension_arithmetic_builds_no_poly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Poly built by scalar arithmetic")

    monkeypatch.setattr(Poly, "__init__", refuse)
    for field in (OMEGA, CUBE2, ZETA8):
        x = field.gen + 3
        assert x * field.inv(x) == field.one()


# the integer form: numerators over one denominator.  Monic minimal
# polynomials with non-integral coefficients put a denominator on the table
# of powers (a^2 = 1/2; a^3 = a/3 - 1/2 and a^4 = a^2/3 - a/2 over 6)
HALF = make_extension("x^2-1/2")
THIRDS = make_extension((Fraction(1, 2), Fraction(-1, 3), 0, 1))
INTEGER_FORM_FIELDS = pytest.mark.parametrize(
    "field", [OMEGA, CUBE2, HALF, THIRDS], ids=["a2+a+1", "a3-2", "a2-1/2", "a3-a/3+1/2"])


def assert_lowest_terms(x):
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)


@INTEGER_FORM_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_form_matches_rational_reference(field, data):
    x, y = data.draw(ext_elems(field)), data.draw(ext_elems(field))
    assert (x + y).coeffs == tuple(a + b for a, b in zip(x.coeffs, y.coeffs))
    assert (x - y).coeffs == tuple(a - b for a, b in zip(x.coeffs, y.coeffs))
    assert (-x).coeffs == tuple(-a for a in x.coeffs)
    assert (x * y).coeffs == poly_reference_product(x, y).coeffs
    for z in (x, x + y, x - y, -x, x * y):
        assert_lowest_terms(z)
    if x:
        inv = field.inv(x)
        assert_lowest_terms(inv)
        assert poly_reference_product(x, inv) == field.one()
    # coordinates past the degree fold back as the remainder mod p
    long = data.draw(st.lists(fracs, min_size=field.degree + 1, max_size=2 * field.degree + 2))
    _, r = div_rem(Poly(QQ, long), Poly(QQ, field.minpoly))
    folded = ExtElem(field, long)
    assert_lowest_terms(folded)
    assert folded == ExtElem(field, r.coeffs)


@INTEGER_FORM_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_elements_have_one_form_and_hash(field, data):
    x, y = data.draw(ext_elems(field)), data.draw(ext_elems(field))
    q = data.draw(fracs)
    for z in [(x + y) - y, -(-x), x * field.one()] + ([(x * y) / y] if y else []):
        assert z == x and (z.num, z.den) == (x.num, x.den) and hash(z) == hash(x)
    # a rational element equals, and hashes as, the rational
    s = ExtElem(field, [q])
    assert s == q and q == s and hash(s) == hash(q)
    assert (s == int(q)) == (q.denominator == 1)
    if q.denominator == 1:
        assert hash(s) == hash(int(q))
    assert (x == q) == (x.coeffs == (q,) + (0,) * (field.degree - 1))
    assert s + field.gen != q and (s + field.gen) * 0 == 0
    assert bool(x) == any(x.coeffs)


def test_coefficients_kept_not_rewrapped():
    q = Fraction(2, 3)
    assert ExtElem(CUBE2, [q, 1]).coeffs[0] is q
    assert ExtElem(CUBE2, [1, 2]).coeffs == (1, 2, 0)


@INTEGER_FORM_FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_scaling_matches_field_product(field, data):
    # a rational factor or divisor scales the integer form; the full product
    # by the rational lifted into the field is the reference
    x, q = data.draw(ext_elems(field)), data.draw(fracs)
    for r in (q, q.numerator, -3):
        assert (x * r).coeffs == (x * field.coerce(r)).coeffs == (r * x).coeffs
        assert_lowest_terms(x * r)
        if r:
            assert (x / r).coeffs == (x * field.inv(field.coerce(r))).coeffs
            assert_lowest_terms(x / r)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_rational_scaling_takes_no_inverse(monkeypatch):
    monkeypatch.setattr(NumberField, "inv", lambda self, v: pytest.fail("inv called"))
    x = OMEGA.gen + Fraction(1, 3)
    assert x / Fraction(-2, 5) == ExtElem(OMEGA, [Fraction(-5, 6), Fraction(-5, 2)])
    assert x * 6 == ExtElem(OMEGA, [2, 6])


def test_zero_divisor_in_reducible_cubic():
    split = NumberField((0, -1, 0, 1))     # a^3 - a, built without the gate
    with pytest.raises(NotIrreducible):
        split.inv(split.gen)
    assert split.inv(split.gen + 2) * (split.gen + 2) == split.one()
    # a^3 - a/4 = a (a - 1/2) (a + 1/2): a denominator on the table of powers
    quarter = NumberField((0, Fraction(-1, 4), 0, 1))
    for v in (quarter.gen, 2 * quarter.gen - 1):
        with pytest.raises(NotIrreducible):
            quarter.inv(v)
    assert quarter.inv(quarter.gen + 1) * (quarter.gen + 1) == quarter.one()


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


def test_minpoly_printed_with_one_sign():
    assert repr(make_extension("x^2-3")) == "QQ[a]/(a^2 - 3)"
    assert repr(make_extension("x^3-1/2*x-1")) == "QQ[a]/(a^3 - 1/2*a - 1)"
    with pytest.raises(NotIrreducible, match=r"^a\^2 - 4 factors over the rationals$"):
        make_extension("x^2-4")


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


# -- exact row reduction -----------------------------------------------------

def matrices(ring):
    """Row lists over ``ring``, with many zeros and appended combinations of
    earlier rows, so that zero and rank-deficient inputs come up often."""
    entries = st.one_of(st.just(ring.zero()), fracs if ring == QQ else ext_elems(ring))

    @st.composite
    def build(draw):
        ncols = draw(st.integers(0, 5))
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
        for _ in range(draw(st.integers(0, 2)) if rows else 0):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(entries), draw(entries)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
        return rows

    return build()


@pytest.mark.parametrize("ring", [QQ, OMEGA], ids=["QQ", "omega"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_reduce(ring, data):
    rows = data.draw(matrices(ring))
    ncols = len(rows[0]) if rows else 0
    pivots, reduced = row_reduce(rows)
    # reduced row echelon form: increasing pivots, each a 1 that leads its
    # row and is the only nonzero entry of its column
    assert len(reduced) == len(pivots) and pivots == sorted(set(pivots))
    for k, row in enumerate(reduced):
        assert len(row) == ncols and row[pivots[k]] == 1
        assert all(v == 0 for v in row[:pivots[k]])
        assert all(row[p] == 0 for j, p in enumerate(pivots) if j != k)
    # every input row is the combination of reduced rows read off its pivots
    for row in rows:
        acc = [ring.zero()] * ncols
        for p, red in zip(pivots, reduced):
            acc = [a + row[p] * v for a, v in zip(acc, red)]
        assert acc == list(row)
    # and every reduced row lies in the span of the input
    for red in reduced:
        assert row_reduce(rows + [red])[0] == pivots


def fraction_gauss_jordan(rows):
    """The Gauss-Jordan loop on Fractions: each pivot row is divided by its
    pivot and cleared from every other row."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [u - row[c] * v for u, v in zip(row, rows[r])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


@st.composite
def rank_deficient(draw):
    """The m x n product of an m x k and a k x n matrix, so of rank at most
    k <= min(m, n).  Factor entries are zeros, ints and Fractions, so the
    product mixes ints (where every term was an int) with Fractions."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(m, n)))
    small = st.one_of(st.just(0), st.integers(-4, 4), fracs)
    left = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((a * right[t][j] for t, a in enumerate(row)), 0) for j in range(n)]
            for row in left]


@settings(max_examples=150, deadline=None)
@given(rank_deficient())
def test_rational_row_reduce_matches_fraction_gauss_jordan(rows):
    pivots, reduced = row_reduce(rows)
    want_pivots, want_rows = fraction_gauss_jordan(rows)
    assert pivots == want_pivots and reduced == want_rows
    assert all(type(v) is Fraction for row in reduced for v in row)


def test_row_reduce_degenerate_inputs():
    assert row_reduce([]) == ([], [])
    assert row_reduce([[], []]) == ([], [])
    z = Fraction(0)
    assert row_reduce([[z, z], [z, z]]) == ([], [])
    half = Fraction(1, 2)
    assert row_reduce([[z, 2 * half, half], [z, 2, 1]]) == ([1], [[z, 1, half]])
    w = OMEGA.gen
    pivots, reduced = row_reduce([[w, w * w], [OMEGA.one(), w]])
    assert pivots == [0] and reduced == [[1, w]]


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
        assert x ** -1 == D.inv(x) and x ** -3 == D.inv(x) * D.inv(x) * D.inv(x)
    assert x ** 5 == x * x * x * x * x and x ** 0 == D.one()


def test_negative_powers():
    assert dual_lift(2, 1) ** -1 == dual_lift(Fraction(1, 2), Fraction(-1, 4))
    w = OMEGA.gen
    assert w ** -1 == w * w and (w + 3) ** -2 * (w + 3) ** 2 == 1
    with pytest.raises(ValueError):
        Poly.x(QQ) ** -1


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
