"""The Bethe algebra route: Gaudin Hamiltonians on the Specht module.

Oracles that do not use the code under test: the Coxeter relations of the
symmetric group, the hook length formula for the number of standard
tableaux, and the eigenvalue formula of Reshetikhin and Varchenko, in the
gl form E_s = sum_{r != s} 1/(z_s - z_r) - sum_a 1/(z_s - t_a) over the
level-1 coordinates t_a of a critical point.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from wroncrit import bethe, cli, gaudin
from wroncrit.bethe import MasterData, master_from_sector, point_sector, solve_critical, \
    translate_master
from wroncrit.cli import _basic_of, load_problem, run_verify
from wroncrit.errors import NotRealizable
from wroncrit.field import QQ, embed_scalar, make_extension
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


def element_loop_transpositions(lam):
    # Young's orthogonal form entry by entry, as adjacent_transpositions built it
    # before its table: the reference for the table-built stack
    tabs = gaudin.standard_tableaux(lam)
    index = {t: k for k, t in enumerate(tabs)}
    contents = [gaudin._contents(t) for t in tabs]
    S = np.zeros((max(sum(lam) - 1, 0), len(tabs), len(tabs)))
    for j in range(len(S)):
        for k, (t, c) in enumerate(zip(tabs, contents)):
            rho = c[j + 1] - c[j]
            S[j, k, k] = 1.0 / rho
            if abs(rho) > 1:
                swapped = t[:j] + (t[j + 1], t[j]) + t[j + 2:]
                S[j, k, index[swapped]] = np.sqrt(1.0 - 1.0 / rho ** 2)
    return S


@pytest.mark.parametrize("lam", SHAPES + [(5, 5), (6, 4), (3, 2, 1), (1, 1, 1), (4,), (1, 2)],
                         ids=str)
def test_table_built_transpositions_are_bitwise_the_element_loop(lam):
    want = element_loop_transpositions(lam)
    for _ in range(2):  # the first call builds the shape's table, the second reads it
        S = gaudin.adjacent_transpositions(lam)
        assert S.shape == want.shape and S.dtype == want.dtype
        assert np.array_equal(S.view(np.uint64), want.view(np.uint64))


def test_hamiltonians_build_the_tableaux_once_per_shape(monkeypatch):
    calls = []
    tableaux = gaudin.standard_tableaux
    monkeypatch.setattr(gaudin, "standard_tableaux",
                        lambda lam: calls.append(lam) or tableaux(lam))
    gaudin._orthogonal_form.cache_clear()
    data = sl2(8, 3)
    first, second = gaudin.hamiltonians(data), gaudin.hamiltonians(data)
    assert calls == [(5, 3)]
    assert np.array_equal(first, second)
    gaudin.hamiltonians(sl3((2, 1), 5))
    assert calls == [(5, 3), (3, 1, 1)]


def test_cached_tables_are_read_only():
    for a in (*gaudin._orthogonal_form((3, 2)), gaudin._combination(5)):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1


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


def sl_form(data):
    # H_s = sum_{r != s} (P_sr - 1/(N+1)) / (z_s - z_r) on S^lam, complex, with
    # P_sr = S_{r-1} .. S_{s+1} S_s S_{s+1} .. S_{r-1} from the adjacent transpositions
    zs = np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)
    S = gaudin.adjacent_transpositions(gaudin.shape(data))
    n, D = len(zs), S.shape[1]
    H = np.zeros((n, D, D), dtype=complex)
    for s in range(n - 1):
        P = S[s]
        for r in range(s + 1, n):
            if r > s + 1:
                P = S[r - 1] @ P @ S[r - 1]
            Omega = P - np.eye(D) / (data.N + 1)
            H[s] += Omega / (zs[s] - zs[r])
            H[r] += Omega / (zs[r] - zs[s])
    return zs, H


def shipped_point_sector(name):
    basic = _basic_of(load_problem(str(PROBLEMS / name)))
    return master_from_sector(basic, point_sector(basic.N))


@pytest.mark.parametrize("data,dtype", [
    (sl2(8, 4), np.float64), (sl3((2, 1), 6), np.float64),
    (shipped_point_sector("variant_rational.json"), np.float64),
    (rou4(), np.complex128), (shipped_point_sector("example_cuberoots.json"), np.complex128),
], ids=["sl2-n8-k4", "sl3-n6-l21", "variant_rational", "rou4", "cuberoots"])
def test_hamiltonians_are_the_gl_form_in_the_dtype_of_the_marked_points(data, dtype):
    # the gl form: every H_s is the sl form plus (1/(N+1)) sum_{r != s} 1/(z_s - z_r)
    # times the identity, and it is real at real marked points
    H = gaudin.hamiltonians(data)
    assert H.dtype == dtype and gaudin._sites(data).dtype == dtype
    # the simple-spectrum rule of bethe._point_orbits and eigh share this test
    assert gaudin.real_sites(data) == (dtype == np.float64)
    zs, ref = sl_form(data)
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    shift = (1.0 / diff).sum(axis=1) / (data.N + 1)
    want = ref + shift[:, None, None] * np.eye(H.shape[1])
    assert H.shape == ref.shape and H.shape[1] > 1
    assert np.abs(H - want).max() < 1e-14 * (1 + np.abs(want).max())
    E = gaudin.joint_eigenvalues(H)
    assert E.dtype == dtype and E.shape == (H.shape[1], len(zs))


def test_joint_eigenvalues_take_the_hamiltonians_alone():
    H = gaudin.hamiltonians(sl2(6, 3))
    with pytest.raises(TypeError):
        gaudin.joint_eigenvalues(H, True)
    assert np.array_equal(gaudin.joint_eigenvalues(H[:, :0, :0]), np.zeros((0, 6)))


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


def partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def with_shape(lam):
    # n points of weight omega_1 and the level sizes l_i = lam_i + lam_(i+1) + ..,
    # so that shape() reads lam with a zero appended
    levels = tuple(sum(lam[i:]) for i in range(1, len(lam) + 1))
    omega_1 = (1,) + (0,) * (len(levels) - 1)
    return MasterData(QQ, levels, tuple((z, omega_1) for z in range(sum(lam))))


@pytest.mark.parametrize("n", range(1, 10))
def test_singular_dim_counts_the_standard_tableaux(n):
    for lam in partitions(n):
        data = with_shape(lam)
        assert gaudin.shape(data) == lam + (0,)
        assert gaudin.singular_dim(data) == len(gaudin.standard_tableaux(lam)) > 0


@pytest.mark.parametrize("data", [sl3((1, 1), 4), sl3((0, 2), 4), sl2(3, 4),
                                  MasterData(QQ, (1, 2, 1), ((0, (1, 0, 0)), (1, (1, 0, 0))))],
                         ids=["l11", "l02", "n3k4", "l121"])
def test_singular_dim_is_zero_where_there_is_no_tableau(data):
    assert gaudin.singular_dim(data) == len(gaudin.standard_tableaux(gaudin.shape(data))) == 0


def rv_eigenvalues(data, point):
    zs = np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)
    ts = np.array(point[0], dtype=complex)
    out = []
    for s, z in enumerate(zs):
        out.append(sum(1.0 / (z - w) for r, w in enumerate(zs) if r != s)
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
    E = gaudin.joint_eigenvalues(gaudin.hamiltonians(data))
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

    out = bethe._polish(pts, C, zs, W)[0]
    assert (residual(out) < 1e-3 * residual(pts)).all()
    assert np.array_equal(pts.view(np.uint64), before.view(np.uint64))
    # the step of row 1 points away from the orbit: that row is left alone
    gn_step = bethe._gn_step

    def away(F, J):
        step = gn_step(F, J)
        step[1] = -step[1]
        return step

    monkeypatch.setattr(bethe, "_gn_step", away)
    turned = bethe._polish(pts, C, zs, W)[0]
    assert np.array_equal(turned[1].view(np.uint64), pts[1].view(np.uint64))
    others = np.arange(len(pts)) != 1
    assert np.array_equal(turned[others].view(np.uint64), out[others].view(np.uint64))


def test_polish_returns_the_residual_of_the_rows_it_returns(monkeypatch):
    # bitwise the largest log-gradient component the filter would compute,
    # on stepped rows and on rows left alone
    data = sl2(6, 3)
    C = bethe._coupling_matrix(data.l)
    zs, W = bethe._embedded_weights(data)
    raw = gaudin.eigen_points(data)
    gn_step = bethe._gn_step

    def away(F, J):
        step = gn_step(F, J)
        step[::2] = -1e-3 * step[::2]
        return step

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(bethe, "_gn_step", away)
        out, res = bethe._polish(raw, C, zs, W)
        want = np.abs(bethe._critical_equations(out, C, zs, W)[2]).max(axis=1)
        assert np.array_equal(res.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(bethe._accepted(out, C, zs, W, np.inf, res)[0],
                              bethe._accepted(out, C, zs, W, np.inf)[0])


@pytest.mark.parametrize("data,D", [(sl2(10, 5), 42), (sl3((2, 1), 6), 10)],
                         ids=["sl2-n10-k5", "sl3-n6"])
def test_bethe_route_evaluates_each_eigen_point_twice(data, D, monkeypatch):
    # in _polish: the full equations at the raw points, the log-gradient
    # alone at the stepped points; the filter reads the residual _polish returns
    rows, residual_rows = [], []
    equations, log_residual = bethe._critical_equations, bethe._log_residual
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    monkeypatch.setattr(bethe, "_log_residual",
                        lambda t, *a: residual_rows.append(len(t)) or log_residual(t, *a))
    orbits = solve_critical(data)
    assert gaudin.singular_dim(data) == len(orbits) == D
    assert rows == [D] and residual_rows == [D]


def _rho(data):
    # rho_s = y_1'(z_s)/y_1(z_s) of every joint eigenvalue, as eigen_points reads it
    zs = gaudin._sites(data)
    E = gaudin.joint_eigenvalues(gaudin.hamiltonians(data))
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    return zs, (1.0 / diff).sum(axis=1) - E


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
    # every eigen-point's first level is that row's roots, and the next level
    # holds the roots of a v with Wr(y_1, ytilde) = T_1 v solvable: T_1 v lies
    # in the span of the Wr(y_1, x^k) = x^k y_1' - k x^(k-1) y_1, by lstsq
    pts = gaudin.eigen_points(data)
    assert pts.shape == (D, data.size())
    assert np.array_equal(pts[:, :degree], roots)
    if data.N > 1:
        P = np.polynomial.polynomial
        T = [float(c) for c in data.T[0].coeffs]
        for row, c in zip(pts, coeffs):
            rhs = P.polymul(T, np.poly(row[degree:])[::-1].real)
            cols = [P.polysub(P.polymul(P.polyder(c), [0] * k + [1]),
                              k * P.polymul(c, [0] * (k - 1) + [1]) if k else [0])
                    for k in range(len(rhs) - len(c) + 2)]
            A = np.array([np.pad(col, (0, len(rhs) - len(col))) for col in cols]).T
            sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            assert np.abs(A @ sol - rhs).max() < 1e-12 * np.abs(rhs).max()


def test_stacked_wronskian_systems_are_the_per_row_ones():
    # row s of the stacked system is bitwise the system of row s alone, and at
    # real marked points every level, and so the one root of y_2, is real
    data = sl3((2, 1), 6)
    zs, rho = _rho(data)
    y = gaudin._level_one(zs, rho, 2)
    T = np.array([float(c) for c in data.T[0].coeffs])
    A, b = gaudin._wronskian_system(y, np.tile(T, (len(y), 1)), 1)
    assert A.dtype == b.dtype == np.float64
    for s in range(len(y)):
        A1, b1 = gaudin._wronskian_system(y[s:s + 1], T[None], 1)
        assert np.array_equal(A[s], A1[0]) and np.array_equal(b[s], b1[0])
    assert not gaudin.eigen_points(data)[:, 2].imag.any()


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


def test_verify_reports_no_route_where_no_space_realizes_the_point_sector():
    # sl3 with l = (0, 2) at one point: the point sector has a negative level
    out = run_verify(MasterData(QQ, (0, 2), ((0, (1, 0)),)))
    assert out["diagnostics"] == {"route": None, "singular_dim": None}
    assert out["report"]["lr_target"] == 0 and out["report"]["verdict"] == "MATCH"


def test_verify_reports_the_route_when_the_point_sector_has_no_critical_points(monkeypatch):
    # the point sector's data exists, so its route is reported although the
    # solver finds its labels colliding and solves no sector
    basic = load_problem(str(PROBLEMS / "example_cuberoots.json"))
    point = master_from_sector(basic, point_sector(basic.N))

    def no_points(data):
        raise NotRealizable("labels collide")

    monkeypatch.setattr(bethe, "_sector_of", no_points)
    out = run_verify(basic)
    assert out["diagnostics"] == {"route": "bethe", "singular_dim": gaudin.singular_dim(point)}
    assert all(s["orbits"] == [] for s in out["report"]["sectors"].values())
