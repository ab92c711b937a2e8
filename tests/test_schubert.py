"""Box-truncated Littlewood-Richardson products and intersection numbers.

Two oracles stand apart from the strip engine under test.  The Pieri rule:
multiplying by a one-row class adds a horizontal strip, and iterating it
expands any product of one-row classes.  And a lattice-word filling
counter, which fills the skew shape nu/lam cell by cell, for any classes.
"""

import itertools
import random
from fractions import Fraction

import pytest

from wroncrit.errors import BoxOverflow
from wroncrit.field import QQ, make_extension
from wroncrit.ramification import validate_basic
from wroncrit.schubert import (
    intersection_number,
    lr_coefficient,
    mult_partitions,
    normalize_partition,
)


# -- Pieri oracle --------------------------------------------------------------

def pieri_row(lam, r, rows, cols):
    """All mu obtained from lam by adding a horizontal r-strip inside the box."""
    lam = list(lam) + [0] * (rows - len(lam))
    out = []

    def rec(i, left, acc):
        if i == rows:
            if left == 0:
                out.append(tuple(acc))
            return
        upper = cols if i == 0 else acc[i - 1]       # stay a partition
        lo, hi = lam[i], min(upper, lam[i - 1] if i > 0 else cols)
        for v in range(lo, hi + 1):
            if v - lam[i] <= left:
                rec(i + 1, left - (v - lam[i]), acc + [v])

    rec(0, r, [])
    return [m for m in out
            if all(m[i] >= lam[i] for i in range(rows))
            and all(i == 0 or m[i] <= lam[i - 1] for i in range(rows))]


def expand_power_of_row(r, power, rows, cols):
    """sigma_(r)^power in the box, expanded with the Pieri rule only."""
    state = {(0,) * rows: 1}
    for _ in range(power):
        nxt = {}
        for lam, c in state.items():
            for mu in pieri_row(lam, r, rows, cols):
                nxt[mu] = nxt.get(mu, 0) + c
        state = nxt
    return {k: v for k, v in state.items() if v}


# -- lattice-filling oracle ------------------------------------------------------

def count_lr_fillings(lam, mu, nu):
    """Lattice-word skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse reading order (top row first, right to left),
    so the lattice condition can be enforced on every prefix.  Rows must be
    weakly, columns strictly, increasing.
    """
    if sum(lam) + sum(mu) != sum(nu) or len(lam) > len(nu) \
            or any(v > nu[i] for i, v in enumerate(lam)):
        return 0
    rows = len(nu)
    lam_p = list(lam) + [0] * (rows - len(lam))
    cells = [(r, c) for r in range(rows) for c in range(nu[r] - 1, lam_p[r] - 1, -1)]
    m = len(mu)
    counts = [0] * (m + 1)
    fill = {}

    def place(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = fill.get((r, c + 1))
        above = fill.get((r - 1, c))
        total = 0
        for v in range(1, m + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            counts[v] += 1
            fill[(r, c)] = v
            total += place(idx + 1)
            del fill[(r, c)]
            counts[v] -= 1
        return total

    return place(0)


# -- pinned values ---------------------------------------------------------------

def test_sigma1_fourth_power_gr24():
    # four one-box classes in the 2x2 box: the point class appears twice
    got = expand_power_of_row(1, 4, 2, 2)
    assert got[(2, 2)] == 2
    out = {(0, 0): 1}
    for _ in range(4):
        nxt = {}
        for lam, c in out.items():
            for mu, k in mult_partitions(lam, (1, 0), (2, 2)).items():
                nxt[mu] = nxt.get(mu, 0) + c * k
        out = nxt
    assert out[(2, 2)] == 2


def test_sigma1_sixth_power_gr25():
    # 2x3 box; the Pieri expansion pins the point coefficient at 5
    assert expand_power_of_row(1, 6, 2, 3)[(3, 3)] == 5
    out = {(0, 0): 1}
    for _ in range(6):
        nxt = {}
        for lam, c in out.items():
            for mu, k in mult_partitions(lam, (1, 0), (2, 3)).items():
                nxt[mu] = nxt.get(mu, 0) + c * k
        out = nxt
    assert out[(3, 3)] == 5


def test_small_products():
    # sigma_1^2 = sigma_2 + sigma_11 in a 2x2 box
    assert mult_partitions((1, 0), (1, 0), (2, 2)) == {(2,): 1, (1, 1): 1}
    # against the wall the square shrinks
    assert mult_partitions((2, 0), (2, 0), (2, 2)) == {(2, 2): 1}
    assert mult_partitions((1, 1), (2, 0), (2, 2)) == {}   # exceeds the box


def test_lr_and_box_truncation():
    assert lr_coefficient((1, 0), (1, 0), (1, 1)) == 1
    assert lr_coefficient((1, 0), (1, 0), (2, 0)) == 1
    assert lr_coefficient((1, 0), (1, 0), (3, 0)) == 0     # wrong size
    assert lr_coefficient((2, 1), (1, 0), (2, 2)) == 1
    # (2,1)*(2,1) in the full ring contains (3,2,1) with coefficient 2
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    # the same class is killed by a 2-row box
    assert mult_partitions((2, 1), (2, 1), (2, 3)).get((3, 2, 1)) is None


def random_partition(rng, rows, cols):
    parts = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
    return tuple(parts)


def test_lr_symmetry_random():
    rng = random.Random(9)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        lam = random_partition(rng, rows, cols)
        mu = random_partition(rng, rows, cols)
        nu = random_partition(rng, rows, cols)
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_pieri_agreement_random():
    rng = random.Random(10)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        lam = random_partition(rng, rows, cols)
        r = rng.randint(1, cols)
        want = {normalize_partition(mu): 1 for mu in pieri_row(lam, r, rows, cols)}
        got = mult_partitions(lam, (r,), (rows, cols))
        assert got == want


def test_mult_commutes_random():
    rng = random.Random(21)
    for _ in range(80):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        lam = random_partition(rng, rows, cols)
        mu = random_partition(rng, rows, cols)
        assert mult_partitions(lam, mu, (rows, cols)) == mult_partitions(mu, lam, (rows, cols))


# -- situation-level counting ------------------------------------------------------

def test_intersection_number_cuberoots():
    K = make_extension("x^2+x+1")
    w = K.gen
    b = validate_basic(K, 3, 1, [(K.one(), (1, 0)), (w, (1, 0)), (-1 - w, (1, 0))],
                       (1, 0))
    assert intersection_number(b) == 2


def test_intersection_number_rational_variant():
    b = validate_basic(QQ, 3, 1,
                       [(Fraction(0), (1, 0)), (Fraction(1), (1, 0)),
                        (Fraction(-1), (1, 0))], (1, 0))
    assert intersection_number(b) == 2


def test_intersection_number_two_level():
    # N = 2, d = 3: two simple points and the rest of the weight at infinity
    b = validate_basic(QQ, 3, 2,
                       [(Fraction(0), (1, 0, 0)), (Fraction(1), (1, 0, 0))],
                       (1, 0, 0))
    assert intersection_number(b) == 1


def test_normalize_partition():
    assert normalize_partition((2, 1, 0), (3, 4)) == (2, 1)
    with pytest.raises(BoxOverflow):
        normalize_partition((2, 1, 1), (2, 4))
    with pytest.raises(ValueError):
        normalize_partition((1, 2))

def _box_partitions(rows, cols):
    # every partition inside the rows x cols box, normalized
    for lam in itertools.product(range(cols + 1), repeat=rows):
        if all(lam[i] >= lam[i + 1] for i in range(rows - 1)):
            yield normalize_partition(lam)


def _oracle_product(lam, mu, parts):
    # lam times mu over the partitions parts of a box, by filling counts
    return {nu: c for nu in parts if (c := count_lr_fillings(lam, mu, nu))}


@pytest.mark.parametrize("box", [(r, c) for r in range(1, 4) for c in range(1, 5)], ids=str)
def test_mult_partitions_is_lr_coefficient_over_every_nu(box):
    # every pair of classes in the box, against the lattice-filling counter
    parts = list(_box_partitions(*box))
    for lam, mu in itertools.product(parts, repeat=2):
        want = _oracle_product(lam, mu, parts)
        assert mult_partitions(lam, mu, box) == want
        assert all(lr_coefficient(lam, mu, nu, box) == want.get(nu, 0) for nu in parts)


@pytest.mark.parametrize("box", [(4, 4), (4, 5)], ids=str)
def test_mult_partitions_sampled_in_larger_boxes(box):
    # seeded pairs where mu has at least two rows and is not a column, so
    # that the strips meet the lattice condition between labels
    parts = list(_box_partitions(*box))
    wide = [p for p in parts if len(p) >= 2 and p[0] >= 2]
    rng = random.Random(28 + box[1])
    for _ in range(60):
        lam, mu = rng.choice(parts), rng.choice(wide)
        assert mult_partitions(lam, mu, box) == _oracle_product(lam, mu, parts)
    # sigma_21 squared has sigma_321 with coefficient 2 in both boxes
    assert mult_partitions((2, 1), (2, 1), box)[(3, 2, 1)] == 2
