"""Ramification sequences, exponents, and validated marked-point data."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from wroncrit import ramification
from wroncrit.bethe import MasterData, translate_master
from wroncrit.cli import _basic_of, load_problem
from wroncrit.errors import (
    CheckFailed,
    DimensionMismatch,
    DuplicatePoints,
    NotRealizable,
)
from wroncrit.field import QQ, make_extension
from wroncrit.polyring import Poly, exact_div, parse_poly, wronskian
from wroncrit.ramification import (
    check_ram_sequence,
    exponents_at,
    exponents_at_infinity,
    exponents_of_ram,
    fmt_exps,
    infinity_labels,
    ram_from_exponents,
    validate_basic,
    without_base_points,
    wronskian_ram_check,
)


def P(s):
    return parse_poly(s, QQ)


# -- random valid data -------------------------------------------------------

def random_basic(rng):
    """Random (d, N, points, infinity) with total weight (N+1)(d-N)."""
    N = rng.randint(1, 3)
    d = rng.randint(N + 1, N + 4)
    cap = d - N
    budget = (N + 1) * cap

    def random_seq(w):
        # greedy fill keeps the sequence weakly decreasing
        out = []
        for _ in range(N + 1):
            take = min(w, cap)
            out.append(take)
            w -= take
        assert w == 0
        return tuple(out)

    w_inf = rng.randint(0, min(budget, cap * (N + 1)) // 2)
    budget -= w_inf
    chunks = []
    while budget > 0:
        c = rng.randint(1, min(budget, cap * (N + 1)))
        chunks.append(c)
        budget -= c
    zs = rng.sample(range(-20, 21), len(chunks))
    points = [(Fraction(z), random_seq(c)) for z, c in zip(zs, chunks)]
    return d, N, points, random_seq(w_inf)


# -- sequence validation -----------------------------------------------------

def test_check_ram_sequence():
    assert check_ram_sequence([2, 1, 0], 4, 2) == (2, 1, 0)
    with pytest.raises(NotRealizable):
        check_ram_sequence([1, 2, 0], 4, 2)       # not decreasing
    with pytest.raises(NotRealizable):
        check_ram_sequence([3, 0, 0], 4, 2)       # exceeds d - N
    with pytest.raises(NotRealizable):
        check_ram_sequence([1, 0, -1], 4, 2)
    with pytest.raises(DimensionMismatch):
        check_ram_sequence([1, 0], 4, 2)
    with pytest.raises(DimensionMismatch):
        check_ram_sequence([1.2, 0, 0], 4, 2)    # not truncated to (1, 0, 0)


def test_exponent_translation_known():
    # a = (1, 0) in (d, N) = (3, 1): finite exponents {0, 2}, at infinity {1, 3}
    assert exponents_of_ram((1, 0), 3) == (0, 2)
    assert exponents_of_ram((1, 0), 3, at_infinity=True) == (1, 3)
    assert exponents_of_ram((0, 0), 3) == (0, 1)
    assert exponents_of_ram((0, 0), 3, at_infinity=True) == (2, 3)


def test_exponent_roundtrip_random():
    rng = random.Random(4)
    for _ in range(200):
        N = rng.randint(1, 4)
        d = rng.randint(N + 1, N + 6)
        a = []
        prev = d - N
        for _ in range(N + 1):
            prev = rng.randint(0, prev)
            a.append(prev)
        a = tuple(sorted(a, reverse=True))
        for inf in (False, True):
            e = exponents_of_ram(a, d, at_infinity=inf)
            assert ram_from_exponents(e, d, at_infinity=inf) == a
            assert len(set(e)) == N + 1
            assert all(0 <= v <= d for v in e)


# -- validated situations ----------------------------------------------------

def cuberoots_situation():
    K = make_extension("x^2+x+1")
    w = K.gen
    pts = [(K.one(), (1, 0)), (w, (1, 0)), (-1 - w, (1, 0))]
    return validate_basic(K, 3, 1, pts, (1, 0))


def test_cuberoots_derived_data():
    b = cuberoots_situation()
    x = Poly.x(b.ring)
    assert b.K[0] == Poly.one(b.ring) and b.K[1] == Poly.one(b.ring)
    assert b.K[2] == x ** 3 - 1
    assert b.T[0] == Poly.one(b.ring)
    assert b.T[1] == x ** 3 - 1
    assert b.lengths == (3,)


def test_weight_accounting():
    with pytest.raises(DimensionMismatch):
        validate_basic(QQ, 3, 1, [(Fraction(0), (1, 0))], (1, 0))  # total 2 != 4
    with pytest.raises(DimensionMismatch):
        validate_basic(QQ, 3.7, 1, [(Fraction(0), (2, 0))], (1, 0))  # not read as d = 3
    with pytest.raises(DuplicatePoints):
        validate_basic(QQ, 3, 1,
                       [(Fraction(0), (1, 0)), (Fraction(0), (1, 0)),
                        (Fraction(1), (1, 0))], (1, 0))


def test_lengths_are_positive_random():
    # l_i >= i(N+1-i) for any valid data; in particular every length is >= 1
    rng = random.Random(11)
    for _ in range(150):
        d, N, points, inf = random_basic(rng)
        b = validate_basic(QQ, d, N, points, inf)
        for i, li in enumerate(b.lengths, start=1):
            assert li >= i * (N + 1 - i)


def test_t_ratio_vs_product_form():
    # T_i = K_{i+1} K_{i-1} / K_i^2 must coincide with the direct product
    # prod (x - z)^(a_i - a_{i+1}) over marked points, a indexed decreasingly
    rng = random.Random(12)
    for _ in range(60):
        d, N, points, inf = random_basic(rng)
        b = validate_basic(QQ, d, N, points, inf)
        x = Poly.x(QQ)
        for i in range(1, N + 1):
            direct = Poly.one(QQ)
            for z, a in b.points:
                e = a[N - i] - a[N + 1 - i]   # i-th smallest minus (i+1)-th
                direct = direct * (x - z) ** e
            assert b.T[i] == direct


def test_total_weight_identity():
    rng = random.Random(13)
    for _ in range(60):
        d, N, points, inf = random_basic(rng)
        b = validate_basic(QQ, d, N, points, inf)
        total = sum(sum(a) for _, a in b.points) + sum(b.infinity)
        assert total == (N + 1) * (d - N)
        # K_{N+1} collects the full tails
        assert b.K[N + 1].degree() == sum(sum(a) for _, a in b.points)


def ladder_points(n):
    return [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(n)]


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
REFERENCE_BASICS = {
    **{f"sl2-n{n}-k{k}": translate_master(MasterData(
        QQ, (k,), tuple((z, (1,)) for z in ladder_points(n))))[0]
       for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (10, 5))},
    **{f"sl3-l21-n{n}": translate_master(MasterData(
        QQ, (2, 1), tuple((z, (1, 0)) for z in ladder_points(n))))[0] for n in (4, 5, 6)},
    **{name: _basic_of(load_problem(str(PROBLEMS / f"{name}.json")))
       for name in ("example_cuberoots", "example_cuberoots_master", "variant_rational")},
}


def reference_K_T(b):
    # the definition by powers and division: K_i = prod_z (x - z)^{e_i(z)}
    # with e_i the sum of the i smallest entries, T_0 = K_1 and
    # T_i = K_{i+1} K_{i-1} / K_i^2
    x = Poly.x(b.ring)
    K = [Poly.one(b.ring)]
    for i in range(1, b.N + 2):
        prod = Poly.one(b.ring)
        for z, a in b.points:
            prod = prod * (x - z) ** sum(a[len(a) - i:])
        K.append(prod)
    T = [K[1]] + [exact_div(K[i + 1] * K[i - 1], K[i] * K[i]) for i in range(1, b.N + 1)]
    return tuple(K), tuple(T)


@pytest.mark.parametrize("b", list(REFERENCE_BASICS.values()), ids=list(REFERENCE_BASICS))
def test_K_and_T_read_off_the_exponents_equal_the_quotients(b):
    assert (b.K, b.T) == reference_K_T(b)


def test_K_and_T_with_base_points_equal_the_quotients():
    # random data, where a(z) often ends in a positive entry (a base point)
    rng = random.Random(21)
    for _ in range(40):
        b = validate_basic(QQ, *random_basic(rng))
        assert (b.K, b.T) == reference_K_T(b)


def test_K_and_T_are_built_once_on_first_read():
    # validate_basic keeps the orders e_i(z); the polynomials wait for a reader
    b = cuberoots_situation()
    assert "K" not in vars(b) and "T" not in vars(b)
    assert b.orders == ((0, 0, 1),) * 3
    assert b.K_degrees == (0, 0, 3) == tuple(k.degree() for k in b.K)
    assert b.K is b.K and b.T is b.T


def test_without_base_points():
    plain = cuberoots_situation()
    assert without_base_points(plain) is plain
    # (1, 1) at 0 and (2, 1) at infinity: d drops by 2, the lengths stay
    b = validate_basic(QQ, 5, 1, [(0, (1, 1)), (1, (2, 0)), (-1, (1, 0))], (2, 1))
    r = without_base_points(b)
    assert (r.d, r.points, r.infinity) == (3, ((0, (0, 0)), (1, (2, 0)), (-1, (1, 0))), (1, 0))
    assert r.lengths == b.lengths
    # x divides every member, which leaves d = 3, where (3, 0) at 1 does not fit
    with pytest.raises(NotRealizable, match="leading entry 3 exceeds d - N = 2"):
        without_base_points(validate_basic(QQ, 4, 1, [(0, (1, 1)), (1, (3, 0))], (1, 0)))


# -- exponents of explicit spaces ----------------------------------------------

def test_exponents_of_span():
    basis = [P("x"), P("x^3+2")]
    assert exponents_at_infinity(basis) == (1, 3)
    # x - (x^3+2)/3 has a double root at 1, so the orders there are {0, 2}
    assert exponents_at(basis, Fraction(1)) == (0, 2)
    # at 0 nothing conspires: orders are just {0, 1}
    assert exponents_at(basis, Fraction(0)) == (0, 1)


def test_exponents_basis_change_invariance():
    rng = random.Random(14)
    basis = [P("x"), P("x^3+2")]
    for _ in range(25):
        a, bq, c, dq = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        if a * dq - bq * c == 0:
            continue
        other = [basis[0] * a + basis[1] * bq, basis[0] * c + basis[1] * dq]
        assert exponents_at(other, Fraction(1)) == exponents_at(basis, Fraction(1))
        assert exponents_at_infinity(other) == exponents_at_infinity(basis)


def test_wronskian_ram_check_cuberoots_space():
    b = cuberoots_situation()
    basis = [Poly.x(b.ring), parse_poly("x^3+2", b.ring)]
    lines = wronskian_ram_check(basis, b)
    assert len(lines) >= 2 + len(b.points)
    # Wr has degree (N+1)(d-N) - |a(inf)| = 4 - 1 = 3
    w = wronskian(basis)
    assert w.degree() == 3
    bad = [Poly.x(b.ring), parse_poly("x^3+x", b.ring)]
    with pytest.raises(CheckFailed):
        wronskian_ram_check(bad, b)


def test_wronskian_ram_check_reads_each_flag_off_one_expansion(monkeypatch):
    # N = 2: weights (1,0) at 0, (0,1) at 1, (1,1) at -1 and l = (0, 0); the
    # adapted flag at each marked point is expanded once
    b = translate_master(MasterData(QQ, (0, 0), ((0, (1, 0)), (1, (0, 1)), (-1, (1, 1)))))[0]
    basis = [P("1"), P("x^3 + 3/2*x^2 - 3"), P("x^6 + 6/5*x^5 - 9/2*x^4 - 12*x^3 - 9*x^2 - 6")]
    sizes = []
    real = ramification.partial_wronskians
    monkeypatch.setattr(ramification, "partial_wronskians",
                        lambda polys: sizes.append(len(polys)) or real(polys))
    lines = wronskian_ram_check(basis, b)
    assert sizes == [3] * len(b.points)
    assert "exponents at -1 = {0, 2, 4}, flag orders match" in lines
    assert "exponents at 0 = {0, 2, 3}, flag orders match" in lines


def test_fmt_exps():
    assert fmt_exps((1, 3)) == "{1, 3}"


def test_infinity_labels():
    # variant_rational: l = (1,) and deg T = (0, 3) give d = 3, labels (3, 1)
    assert infinity_labels((1,), (0, 3)) == ((1, 3), (2, 1))
    # one simple weight: the labels collide, and the caller decides what that means
    assert infinity_labels((1,), (0, 1)) == ((1, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        infinity_labels((1,), (0,))
