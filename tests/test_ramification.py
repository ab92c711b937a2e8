"""Ramification sequences, exponents, and validated marked-point data."""

import random
from fractions import Fraction

import pytest

from wroncrit.errors import (
    CheckFailed,
    DimensionMismatch,
    DuplicatePoints,
    NotRealizable,
)
from wroncrit.field import QQ, make_extension
from wroncrit.polyring import Poly, parse_poly, wronskian
from wroncrit.ramification import (
    check_ram_sequence,
    exponents_at,
    exponents_at_infinity,
    exponents_of_ram,
    fmt_exps,
    infinity_labels,
    ram_from_exponents,
    validate_basic,
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
    assert b.K[0].is_one() and b.K[1].is_one()
    assert b.K[2] == x ** 3 - 1
    assert b.T[0].is_one()
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


def test_fmt_exps():
    assert fmt_exps((1, 3)) == "{1, 3}"


def test_infinity_labels():
    # variant_rational: l = (1,) and deg T = (0, 3) give d = 3, labels (3, 1)
    assert infinity_labels((1,), (0, 3)) == ((1, 3), (2, 1))
    # one simple weight: the labels collide, and the caller decides what that means
    assert infinity_labels((1,), (0, 1)) == ((1, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        infinity_labels((1,), (0,))
