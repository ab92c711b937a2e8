"""The Bethe algebra route: Gaudin Hamiltonians on the Specht module.

Oracles that do not use the code under test: the Coxeter relations of the
symmetric group, the hook length formula for the number of standard
tableaux, and the eigenvalue formula of Reshetikhin and Varchenko,
E_s = sum_{r != s} (N/(N+1))/(z_s - z_r) - sum_a 1/(z_s - t_a) over the
level-1 coordinates t_a of a critical point.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from wroncrit import bethe, gaudin
from wroncrit.bethe import MasterData, master_from_sector, point_sector, solve_critical, \
    translate_master
from wroncrit.cli import _basic_of, load_problem, run_verify
from wroncrit.field import CC, QQ, embed_scalar, make_extension
from wroncrit.polyring import Poly
from wroncrit.schubert import intersection_number

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SHIPPED = ("example_cuberoots.json", "example_cuberoots_master.json", "variant_rational.json")
SHAPES = [(3, 2), (2, 2, 1), (4, 2, 1), (3, 3), (3, 1, 1, 1)]


def ladder_points(n):
    return [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(n)]


def sl2(n, k):
    return MasterData(QQ, (k,), tuple((z, (1,)) for z in ladder_points(n)))


def sl3(l, n):
    return MasterData(QQ, l, tuple((z, (1, 0)) for z in ladder_points(n)))


def rou4():
    field = make_extension("x^2+1")
    return MasterData(field, (1,), tuple((1 + field.gen ** s, (1,)) for s in range(4)))


def hook_length_count(lam):
    n = sum(lam)
    conj = [sum(1 for r in lam if r > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // hooks


@pytest.mark.parametrize("lam", SHAPES, ids=str)
def test_adjacent_transpositions_satisfy_the_coxeter_relations(lam):
    S = gaudin.adjacent_transpositions(lam)
    D = len(gaudin.standard_tableaux(lam))
    eye = np.eye(D)
    assert len(S) == sum(lam) - 1 and D == hook_length_count(lam)
    for i, Si in enumerate(S):
        assert np.abs(Si @ Si - eye).max() < 1e-14
        assert np.abs(Si - Si.T).max() == 0
        if i + 1 < len(S):
            Sj = S[i + 1]
            assert np.abs(Si @ Sj @ Si - Sj @ Si @ Sj).max() < 1e-14
        for Sj in S[i + 2:]:
            assert np.abs(Si @ Sj - Sj @ Si).max() < 1e-14


def test_row_and_column_shapes_are_the_trivial_and_sign_representations():
    assert all(np.array_equal(S, [[1.0]]) for S in gaudin.adjacent_transpositions((4,)))
    assert all(np.array_equal(S, [[-1.0]]) for S in gaudin.adjacent_transpositions((1, 1, 1)))
    assert gaudin.standard_tableaux((1, 2)) == []


@pytest.mark.parametrize("data", [sl2(8, 3), sl2(6, 2), sl3((2, 1), 5), rou4()],
                         ids=["sl2-n8-k3", "sl2-n6-k2", "sl3-n5-l21", "rou4"])
def test_hamiltonians_sum_to_zero_and_commute(data):
    H = gaudin.hamiltonians(data)
    assert H.shape[1] == gaudin.singular_dim(data) > 1
    assert np.abs(H.sum(axis=0)).max() < 1e-12
    for s in range(len(H)):
        for r in range(s + 1, len(H)):
            assert np.abs(H[s] @ H[r] - H[r] @ H[s]).max() < 1e-12


SECTOR_PROBLEMS = {
    **{f"sl2-n{n}-k{k}": sl2(n, k)
       for n, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (10, 5), (12, 6))},
    **{f"sl3-l21-n{n}": sl3((2, 1), n) for n in (4, 5, 6)},
    **{f"sl3-l22-n{n}": sl3((2, 2), n) for n in (5, 6)},
}


@pytest.mark.parametrize("basic", [translate_master(d)[0] for d in SECTOR_PROBLEMS.values()]
                         + [_basic_of(load_problem(str(PROBLEMS / f))) for f in SHIPPED],
                         ids=list(SECTOR_PROBLEMS) + list(SHIPPED))
def test_singular_dimension_is_the_intersection_number(basic):
    # every sector shares the point sector's space; its dimension is the
    # hook length count of the colour counts and the Schubert number
    point = master_from_sector(basic, point_sector(basic.N))
    assert gaudin.covers(point)
    D = gaudin.hamiltonians(point).shape[1]
    assert D == hook_length_count(gaudin.shape(point)) == intersection_number(basic)


def rv_eigenvalues(data, point):
    zs = np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)
    N = data.N
    ts = np.array(point[0], dtype=complex)
    out = []
    for s, z in enumerate(zs):
        out.append(sum((N / (N + 1)) / (z - w) for r, w in enumerate(zs) if r != s)
                   - (1.0 / (z - ts)).sum())
    return np.array(out)


@pytest.mark.parametrize("data", [
    sl2(6, 3), sl2(8, 4), sl2(10, 5), sl3((2, 1), 4), sl3((2, 1), 6),
    *[master_from_sector(b, point_sector(b.N)) for b in
      (_basic_of(load_problem(str(PROBLEMS / f))) for f in SHIPPED)],
], ids=["sl2-n6-k3", "sl2-n8-k4", "sl2-n10-k5", "sl3-n4", "sl3-n6", *SHIPPED])
def test_orbits_are_joint_eigenvalues(data):
    # the Reshetikhin-Varchenko eigenvalue at every orbit is a joint
    # eigenvalue; an orbit of h hits is the mean of the h nearest ones
    H = gaudin.hamiltonians(data)
    zs = np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)
    E = gaudin.joint_eigenvalues(H, bool(np.all(zs.imag == 0)))
    orbits = solve_critical(data)
    assert sum(o.hits for o in orbits) == len(E)
    for o in orbits:
        want = rv_eigenvalues(data, o.point)
        dist = np.abs(E - want).max(axis=1)
        got = E[np.argsort(dist)[:o.hits]].mean(axis=0)
        assert np.abs(got - want).max() < 1e-9 * (1 + np.abs(want).max())


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sl3_l21_finds_every_orbit(n):
    data = sl3((2, 1), n)
    orbits = solve_critical(data)
    assert sum(o.multiplicity for o in orbits) == math.comb(n - 1, 2)
    assert sum(o.multiplicity for o in orbits) == intersection_number(translate_master(data)[0])
    for o in orbits:
        assert o.isolated and o.multiplicity == 1
        coeffs = [complex(c) for y in o.tuple_y for c in y.coeffs]
        assert max(abs(c.imag) for c in coeffs) <= 1e-7 * max(1.0, *(abs(c) for c in coeffs))


@pytest.mark.parametrize("l,n", [((3, 2, 1), 6), ((2, 1, 0), 5)], ids=["l321-n6", "l210-n5"])
def test_sl4_levels_from_the_wronskian_ladder(l, n):
    # y_3 solves Wr(y_2, ytilde_2) = T_2 y_1 y_3, the first level whose
    # lower neighbour is not 1
    data = MasterData(QQ, l, tuple((z, (1, 0, 0)) for z in ladder_points(n)))
    orbits = solve_critical(data)
    assert sum(o.multiplicity for o in orbits) == intersection_number(translate_master(data)[0])
    assert len(orbits) == gaudin.singular_dim(data) > 1
    assert all(o.isolated and o.multiplicity == 1 for o in orbits)


def test_route_ignores_starts_and_seed():
    # the Bethe route draws no start: the orbits do not depend on either
    data = sl2(7, 3)
    a = solve_critical(data, starts=1, seed=0)
    b = solve_critical(data, starts=500, seed=7)
    assert [o.point for o in a] == [o.point for o in b] and len(a) == 14


def test_polish_keeps_a_step_only_where_it_lowers_the_residual(monkeypatch):
    data = sl2(6, 3)
    C = bethe._coupling_matrix(data.l)
    zs, W = bethe._embedded_weights(data)
    rng = np.random.default_rng(0)
    raw = gaudin.eigen_points(data)
    pts = raw + 1e-6 * (rng.normal(size=raw.shape) + 1j * rng.normal(size=raw.shape))
    before = pts.copy()

    def residual(p):
        return np.abs(bethe._critical_equations(p, C, zs, W)[2]).max(axis=1)

    out = bethe._polish(pts, C, zs, W)
    assert (residual(out) < 1e-3 * residual(pts)).all()
    assert np.array_equal(pts.view(np.uint64), before.view(np.uint64))
    # the step of row 1 points away from the orbit: that row is left alone
    gn_step = bethe._gn_step

    def away(F, J):
        step = gn_step(F, J)
        step[1] = -step[1]
        return step

    monkeypatch.setattr(bethe, "_gn_step", away)
    turned = bethe._polish(pts, C, zs, W)
    assert np.array_equal(turned[1].view(np.uint64), pts[1].view(np.uint64))
    others = np.arange(len(pts)) != 1
    assert np.array_equal(turned[others].view(np.uint64), out[others].view(np.uint64))


@pytest.mark.parametrize("data,D", [(sl2(10, 5), 42), (sl3((2, 1), 6), 10)],
                         ids=["sl2-n10-k5", "sl3-n6"])
def test_bethe_route_evaluates_each_eigen_point_three_times(data, D, monkeypatch):
    # the raw points and the stepped points in _polish, then the filter
    rows = []
    equations = bethe._critical_equations
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    orbits = solve_critical(data)
    assert gaudin.singular_dim(data) == len(orbits) == D
    assert rows == [D, D, D]


def _rho(data):
    # rho_s = y_1'(z_s)/y_1(z_s) of every joint eigenvalue, as eigen_points reads it
    zs = gaudin._sites(data)
    E = gaudin.joint_eigenvalues(gaudin.hamiltonians(data), bool(np.all(zs.imag == 0)))
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    return zs, (data.N / (data.N + 1)) * (1.0 / diff).sum(axis=1) - E


@pytest.mark.parametrize("data,D", [(sl2(10, 5), 42), (sl3((2, 1), 6), 10)],
                         ids=["sl2-n10-k5", "sl3-n6"])
def test_stacked_level_one_matches_per_row_lstsq_and_roots(data, D):
    zs, rho = _rho(data)
    degree = data.l[0]
    coeffs = gaudin._level_one(zs, rho, degree)
    assert coeffs.shape == (D, degree + 1)
    # per row: the scaled Vandermonde system by np.linalg.lstsq, roots by np.roots
    scale = max(np.abs(zs).max(), 1.0)
    k = np.arange(degree + 1)
    powers = (zs / scale)[:, None] ** k[None, :]
    dpowers = np.zeros_like(powers)
    dpowers[:, 1:] = k[1:] * powers[:, :-1]
    for row, rho_k in zip(coeffs, rho):
        A = dpowers - (scale * rho_k)[:, None] * powers
        sol, *_ = np.linalg.lstsq(A[:, :degree], -A[:, degree], rcond=None)
        want = np.append(sol, 1.0) * scale ** (degree - k)
        assert np.abs(row - want).max() < 1e-12 * np.abs(want).max()
    roots = gaudin._roots(coeffs)
    assert all(np.array_equal(r, np.roots(c[::-1])) for r, c in zip(roots, coeffs))
    # every eigen-point's first level is that row's roots, the next level is
    # the monic v of the row's Wronskian least-squares solve
    pts = gaudin.eigen_points(data)
    assert pts.shape == (D, data.size())
    assert np.array_equal(pts[:, :degree], roots)
    if data.N > 1:
        T = data.T[0].to_ring(CC)
        for row, c in zip(pts, coeffs):
            v = gaudin.wronskian_lstsq(Poly(CC, list(c)), T, data.l[1])[1]
            assert np.array_equal(row[degree:], np.roots(v.coeffs[::-1]))


@pytest.mark.parametrize("l", [(1, 1), (0, 2)], ids=["l11", "l02"])
def test_a_shape_that_is_not_a_partition_has_no_eigen_points(l):
    # sl3 at 4 points: lam = (3, 0, 1) and (4, -2, 2), so D = 0
    data = sl3(l, 4)
    assert gaudin.singular_dim(data) == 0
    assert gaudin.eigen_points(data).shape == (0, sum(l))


def test_covers_omega_1_columns_only():
    assert gaudin.covers(sl3((2, 1), 4))
    assert gaudin.covers(MasterData(QQ, (1, 1), ((0, (1, 0)), (1, (0, 0)), (2, (1, 0)))))
    assert not gaudin.covers(MasterData(QQ, (1, 1), ((0, (1, 0)), (1, (0, 1)))))
    assert not gaudin.covers(MasterData(QQ, (1,), ((0, (2,)), (1, (1,)))))


def test_verify_reports_the_route_beside_the_report():
    out = run_verify(sl2(6, 3))
    assert out["diagnostics"] == {"route": "bethe", "singular_dim": 5}
    assert "diagnostics" not in out["report"] and out["report"]["verdict"] == "MATCH"
    other = run_verify(MasterData(QQ, (1,), ((0, (1,)), (1, (2,)), (-1, (1,)))))
    assert other["diagnostics"] == {"route": "multistart", "singular_dim": None}
