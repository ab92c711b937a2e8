"""First-order Wronskian equation Wr(y, g) = T: solvability and solutions.

The divisibility criterion (y | Wr(y', T)) is checked against an exhaustive
linear-algebra oracle: the equation is linear in g, so existence of a
solution of bounded degree is a rank condition on an exact matrix.
"""

import random
from fractions import Fraction

import pytest

from wroncrit.errors import ExhaustedLadder, NotMonic, NotSolvable, NotSquareFree
from wroncrit.field import QQ
from wroncrit.polyring import Poly, div_rem, parse_poly, wronskian_pair
from wroncrit.wronskian_eq import generic_candidate, solvable, solve


def P(s):
    return parse_poly(s, QQ)


# -- independent oracle: bounded-degree solvability as a linear system --------

def _solve_linear(rows, rhs):
    """Gaussian elimination over Q; returns a solution list or None."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0])
    piv_cols = []
    r = 0
    for c in range(ncols - 1):
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, nrows):
        if m[i][-1] != 0:
            return None        # inconsistent
    x = [Fraction(0)] * (ncols - 1)
    for i, c in enumerate(piv_cols):
        x[c] = m[i][-1]
    return x


def oracle_solution(y: Poly, t: Poly, max_deg: int):
    """Any g with deg g <= max_deg and y'g - yg' = t, or None."""
    cols = []
    for k in range(max_deg + 1):
        g = Poly(QQ, [0] * k + [1])
        cols.append(wronskian_pair(y, g))
    height = max([c.degree() for c in cols if not c.is_zero()] + [t.degree()]) + 1
    rows = [[c.coeff(i) for c in cols] for i in range(height)]
    rhs = [t.coeff(i) for i in range(height)]
    sol = _solve_linear(rows, rhs)
    if sol is None:
        return None
    return Poly(QQ, sol)


def random_squarefree(rng, max_deg):
    while True:
        deg = rng.randint(1, max_deg)
        roots = rng.sample(range(-8, 9), deg)
        return Poly.from_roots(QQ, [Fraction(r) for r in roots])


def random_poly(rng, max_deg):
    deg = rng.randint(0, max_deg)
    cs = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
    if all(c == 0 for c in cs):
        cs[-1] = Fraction(1)
    return Poly(QQ, cs)


# -- the divisibility criterion ----------------------------------------------

def test_solvable_on_constructed_instances():
    rng = random.Random(71)
    for _ in range(100):
        y = random_squarefree(rng, 4)
        g = random_poly(rng, 5)
        t = wronskian_pair(y, g)
        assert solvable(y, t)
        got = solve(y, t)
        diff = got.particular - g
        # solutions differ by an element of the kernel, which is Q*y
        q, r = div_rem(diff, y)
        assert r.is_zero() and q.degree() <= 0


def test_solvable_matches_oracle_on_non_instances():
    rng = random.Random(72)
    checked_false = 0
    while checked_false < 40:
        y = random_squarefree(rng, 3)
        t = random_poly(rng, 4)
        ok = solvable(y, t)
        found = oracle_solution(y, t, t.degree() + 1)
        if ok:
            assert found is not None and wronskian_pair(y, found) == t
            assert wronskian_pair(y, solve(y, t).particular) == t
        else:
            assert found is None
            with pytest.raises(NotSolvable):
                solve(y, t)
            checked_false += 1


def test_kernel_is_the_line_through_y():
    y = P("x^2-1")
    sol = solve(y, wronskian_pair(y, P("x^3")))
    assert sol.homogeneous == y
    for c in (0, 1, -2):
        member = sol.particular + sol.homogeneous * Fraction(c)
        assert wronskian_pair(y, member) == wronskian_pair(y, P("x^3"))


def test_known_solutions():
    # Wr(x, g) = x^3 - 1 has particular -x^3/2 - 1; adding multiples of x
    # sweeps the solution line, whose monic generic member is x^3 + 2
    sol = solve(P("x"), P("x^3-1"))
    assert sol.particular == P("-1/2*x^3-1")
    assert generic_candidate(sol.particular, P("x"))[0].monic() == P("x^3+2")
    # and Wr(x, 1 + x^3/2) = 1 - x^3
    assert wronskian_pair(P("x"), P("1+1/2*x^3")) == P("1-x^3")


def test_unsolvable_raises():
    # Wr(y', 1) = y'' = 2 leaves remainder 2 mod x^2 - 1
    y = P("x^2-1")
    t = P("1")
    assert not solvable(y, t)
    with pytest.raises(NotSolvable):
        solve(y, t)


def test_squarefree_gate():
    with pytest.raises(NotSquareFree):
        solvable(P("x^2"), P("x"))
    with pytest.raises(NotMonic, match="y must be monic"):
        solvable(P("2*x"), P("x"))
    for y, t, error in (("x^2", "x", NotSquareFree), ("x^2", "0", NotSquareFree),
                        ("2*x", "x", NotMonic)):
        with pytest.raises(error):
            solve(P(y), P(t))


# -- generic candidates on the integer ladder ----------------------------------

def test_ladder_order_and_constraints():
    y = P("x")
    ytilde = P("x^3")                       # x^3 + c*x; c=0 not square free
    cand, c = generic_candidate(ytilde, y)
    assert c == 1 and cand == P("x^3+x")
    cand, c = generic_candidate(ytilde, y, avoid_roots_of=[P("x-1")])
    assert c == 1   # 1 is not a root of x^3+x, so the first member survives
    # x^3+x = x(x^2+1) shares a factor with x^2+1, forcing the next rung
    cand, c = generic_candidate(ytilde, y, avoid_roots_of=[P("x^2+1")])
    assert c == -1 and cand == P("x^3-x")


def test_ladder_exhaustion():
    # every member x^2 + c*x = x(x + c) shares the root 0 with x, so the whole
    # ladder of 1000 members is walked and refused
    y = P("x")
    ytilde = P("x^2")
    with pytest.raises(ExhaustedLadder):
        generic_candidate(ytilde, y, avoid_roots_of=[P("x")])
