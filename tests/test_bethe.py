"""Critical points of master functions.

Benchmark values are solved by hand.  With one variable and simple weights
at 0, 1, -1 the critical equation is sum_s 1/(t - z_s) = 0, whose numerator
is 3t^2 - 1: two simple roots at +-1/sqrt(3).  Moving the weights to the
cube roots of unity gives numerator 3t^2/(t^3-1): one doubled root at 0.
The two-level anchor (weights (1,0) at 0 and (0,1) at 1, l = (1,1)) reduces
to t2 = 2*t1 and t1 = 1/3 by elimination.
"""

import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wroncrit import bethe, gaudin
from wroncrit.bethe import (
    Certificate,
    MasterData,
    _coupling_matrix,
    _critical_equations,
    _embedded_weights,
    SectorSpec,
    bethe_residual,
    build_sector,
    certify_critical,
    certify_divisibility,
    certify_tuples,
    check_admissible,
    clear_denominators,
    component_multiplicity,
    gamma,
    induced_space,
    master_from_sector,
    master_value,
    point_sector,
    sector_lengths,
    sectors_of,
    solve_critical,
    translate_master,
)
from wroncrit.cli import _basic_of, load_problem, run_verify
from wroncrit.errors import (
    DimensionMismatch,
    DuplicatePoints,
    EmptySector,
    Inadmissible,
    NotCertified,
    NotIsolated,
    NotRealizable,
    ZeroPolynomial,
)
from wroncrit.field import CC, QQ, embed_scalar, make_extension
from wroncrit.multiplicity import _MULT_TOL, MPoly, MultivariateSystem, local_multiplicity
from wroncrit.polyring import Poly, div_rem, parse_poly, wronskian_pair
from wroncrit.ramification import validate_basic
from wroncrit.reproduction import FertileTuple, build_space, mutate
from wroncrit.schubert import intersection_number

OMEGA = make_extension("x^2+x+1")
R3 = 1.0 / math.sqrt(3.0)


def rational_data(ring=QQ, l=(1,)):
    m = (1,) + (0,) * (len(l) - 1)
    return MasterData(ring, l, ((0, m), (1, m), (-1, m)))


def cuberoots_data(l=(1,)):
    w = OMEGA.gen
    m = (1,) + (0,) * (len(l) - 1)
    return MasterData(OMEGA, l, ((OMEGA.one(), m), (w, m), (-OMEGA.one() - w, m)))


def anchor_data():
    return MasterData(QQ, (1, 1), ((0, (1, 0)), (1, (0, 1))))


# -- data validation -------------------------------------------------------------

def test_masterdata_guards():
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (), ())
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (-1,), ())
    with pytest.raises(DuplicatePoints):
        MasterData(QQ, (1,), ((0, (1,)), (0, (1,))))
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (1,), ((0, (1, 2)),))
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (1,), ((0, (-1,)),))
    # fractional sizes and weights are refused, not truncated
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (1.9,), ((0, (1,)),))
    with pytest.raises(DimensionMismatch):
        MasterData(QQ, (1,), ((0, (1.9,)),))


def test_weight_polynomials():
    data = rational_data()
    assert data.T == (parse_poly("x^3-x", QQ),)
    assert anchor_data().T == (parse_poly("x", QQ), parse_poly("x-1", QQ))
    assert data.size() == 1 and data.N == 1


def test_admissibility():
    data = anchor_data()
    check_admissible([[Fraction(1, 2)], [Fraction(1, 4)]], data)
    # a level-2 coordinate may sit at z = 0 since m_0(2) = 0
    check_admissible([[Fraction(1, 2)], [Fraction(0)]], data)
    with pytest.raises(Inadmissible):
        check_admissible([[Fraction(0)], [Fraction(1, 2)]], data)
    with pytest.raises(Inadmissible):
        check_admissible([[Fraction(1, 3)], [Fraction(1, 3)]], data)
    two = MasterData(QQ, (2,), ((0, (1,)),))
    with pytest.raises(Inadmissible):
        check_admissible([[Fraction(1), Fraction(1)]], two)
    with pytest.raises(DimensionMismatch):
        check_admissible([[Fraction(1)]], data)


@pytest.mark.parametrize("point, message", [
    ([[Fraction(1, 3)], [Fraction(1, 3)]], "coordinates t1_1 and t2_1 collide"),
    ([[0.25], [0.25]], "coordinates t1_1 and t2_1 collide"),
    ([[Fraction(0)], [Fraction(1, 2)]], "coordinate t1_1 sits on the marked point 0"),
    ([[Fraction(1, 2)], [Fraction(1)]], "coordinate t2_1 sits on the marked point 1"),
])
def test_admissibility_messages(point, message):
    with pytest.raises(Inadmissible, match=f"^{message}$"):
        check_admissible(point, anchor_data())


def test_admissibility_message_own_level():
    data = MasterData(QQ, (2, 1), ((0, (1, 0)),))
    with pytest.raises(Inadmissible, match="^coordinates t1_1 and t1_2 collide$"):
        check_admissible([[Fraction(2), Fraction(2)], [Fraction(5)]], data)
    # levels 1 and 3 are not adjacent: t1_1 = t3_1 is allowed
    three = MasterData(QQ, (1, 1, 1), ((0, (1, 0, 0)),))
    check_admissible([[Fraction(2)], [Fraction(3)], [Fraction(2)]], three)


# -- residual and master value ----------------------------------------------------

def test_residual_known_formula():
    data = rational_data()
    t = Fraction(3, 10)
    (r,), = bethe_residual([[t]], data)
    assert r == -(1 / t + 1 / (t - 1) + 1 / (t + 1))
    (rn,), = bethe_residual([[0.3]], data)
    assert abs(complex(r) - rn) < 1e-12


def test_residual_is_log_gradient():
    # finite differences of the master value against the closed-form gradient
    data = anchor_data()
    base = [[0.25], [0.6]]
    res = bethe_residual(base, data)
    h = 1e-6
    for i in range(2):
        up = [list(lev) for lev in base]
        dn = [list(lev) for lev in base]
        up[i][0] += h
        dn[i][0] -= h
        fd = (master_value(up, data) - master_value(dn, data)) / (2 * h)
        grad = fd / master_value(base, data)
        assert abs(grad - res[i][0]) < 1e-4 * (1 + abs(grad))


def test_master_value_pinned():
    data = rational_data()
    assert master_value([[Fraction(1, 3)]], data) == Fraction(-27, 8)
    with pytest.raises(Inadmissible):
        master_value([[Fraction(1)]], data)


def test_gamma_rings():
    ys = gamma([[Fraction(1, 2)], [Fraction(0), Fraction(1)]])
    assert ys[0] == parse_poly("x-1/2", QQ)
    assert ys[1] == parse_poly("x^2-x", QQ)
    assert gamma([[0.5j]])[0].ring == CC


# -- exact certification -----------------------------------------------------------

def test_certify_critical_cuberoots_origin():
    # 1/(0-1) + 1/(0-w) + 1/(0-w^2) = -(1 + w^2 + w) = 0
    data = cuberoots_data()
    cert = certify_critical(data, [[OMEGA.zero()]])
    assert cert.mode == "exact" and cert.residuals == (0.0,)


def test_certify_critical_sqrt3():
    F = make_extension("x^2-3")
    third = F.coerce(Fraction(1, 3))
    data = rational_data(ring=F)
    for t in (third * F.gen, -third * F.gen):
        cert = certify_critical(data, [[t]])
        assert cert.mode == "exact"
    with pytest.raises(NotCertified):
        certify_critical(data, [[F.coerce(Fraction(1, 2))]])


def test_certify_critical_numeric():
    data = rational_data()
    cert = certify_critical(data, [[R3 + 0j]])
    assert cert.mode == "numeric" and cert.residuals[0] < 1e-9
    with pytest.raises(NotCertified):
        certify_critical(data, [[0.25 + 0j]])


def test_certify_divisibility():
    F = make_extension("x^2-3")
    y = parse_poly("x", F) - F.coerce(Fraction(1, 3)) * F.gen
    cert = certify_divisibility([y], rational_data(ring=F))
    assert cert.mode == "exact" and str(cert).startswith("divisibility [exact]")
    with pytest.raises(NotCertified):
        certify_divisibility([parse_poly("x-1/2", QQ)], rational_data())
    # identity sector of the cube-roots problem: Wr(3x^2+5, x^3-1) = -3x(x^3+5x+2)
    cert = certify_divisibility([parse_poly("x^3+5*x+2", OMEGA)], cuberoots_data(l=(3,)))
    assert cert.mode == "exact"
    with pytest.raises(DimensionMismatch):
        certify_divisibility([y, y], rational_data(ring=F))


def test_certify_divisibility_numeric():
    y = gamma([[R3 + 0j]])[0]
    cert = certify_divisibility([y], rational_data())
    assert cert.mode == "numeric" and cert.residuals[0] < 1e-9
    with pytest.raises(NotCertified):
        certify_divisibility([parse_poly("x", QQ).to_ring(CC)], rational_data())


def poly_loop_levels(ys, data, tol=1e-9):
    """The numeric divisibility check one tuple at a time, by Poly arithmetic
    over CC: the remainder norm and its bound tol (1 + ||w||), per level."""
    ys = [y.to_ring(CC) for y in ys]
    T = [f.to_ring(CC) for f in data.T]
    one = Poly.one(CC)
    out = []
    for i in range(len(ys)):
        lo = ys[i - 1] if i > 0 else one
        hi = ys[i + 1] if i + 1 < len(ys) else one
        w = wronskian_pair(ys[i].deriv(), T[i] * lo * hi)
        _, rem = div_rem(w, ys[i])
        bound = tol * (1.0 + max((abs(c) for c in w.coeffs), default=0.0))
        out.append((max((abs(c) for c in rem.coeffs), default=0.0), bound))
    return out


def poly_loop_certificate(ys, data):
    """The Poly loop's residual per level, or the message of the first
    failing one."""
    resid = []
    for i, (r, bound) in enumerate(poly_loop_levels(ys, data), start=1):
        if r > bound:
            return f"level {i}: remainder norm {r:.3e} exceeds {bound:.3e}"
        resid.append(r)
    return tuple(resid)


def assert_certifies_as_the_poly_loop(got, ys, data):
    """The same verdict as the Poly loop: the same message where it refuses
    the tuple, else every residual within 1e-3 of its level's bound of the
    loop's (the stack rounds in numpy's complex arithmetic)."""
    want = poly_loop_certificate(ys, data)
    if isinstance(want, str):
        assert isinstance(got, NotCertified) and str(got) == want
        return
    assert isinstance(got, Certificate) and got.mode == "numeric"
    assert len(got.residuals) == len(want)
    for r, w, (_, bound) in zip(got.residuals, want, poly_loop_levels(ys, data)):
        assert abs(r - w) <= 1e-3 * bound


def _sector_orbits():
    # every orbit of sl2 n10k5 and sl3 (2,1) n6 (point sectors) and of the
    # sectors of the cube roots built from their point sector
    cases = [sl2_ladder_data(10, 5),
             MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in ladder_points(6)))]
    basic = load_problem(str(PROBLEMS / "example_cuberoots.json"))
    cases += [master_from_sector(basic, spec.w) for spec in sectors_of(basic)
              if spec.w != point_sector(basic.N)]
    return [(data, solve_critical(data)) for data in cases]


def test_certify_tuples_is_the_poly_loop_on_every_orbit_of_a_sector():
    for data, orbits in _sector_orbits():
        tuples = [o.tuple_y for o in orbits]
        assert tuples and all(y.ring == CC for t in tuples for y in t)
        for cert, ys in zip(certify_tuples(tuples, data), tuples):
            assert_certifies_as_the_poly_loop(cert, ys, data)


def test_certify_tuples_mixes_monic_and_scaled_divisors_in_one_stack():
    # every orbit of sl2 n10k5 with level 1 of one tuple scaled by 2+1j: one
    # degree pattern, one stack, whose divisors are monic but for one row;
    # y | Wr(y', T) is unchanged by the scaling, so every tuple certifies
    data = sl2_ladder_data(10, 5)
    tuples = [list(o.tuple_y) for o in solve_critical(data)]
    tuples[3][0] = tuples[3][0] * Poly(CC, [2 + 1j])
    assert len({tuple(y.degree() for y in ys) for ys in tuples}) == 1
    got = certify_tuples(tuples, data)
    assert all(isinstance(c, Certificate) for c in got)
    for cert, ys in zip(got, tuples):
        assert_certifies_as_the_poly_loop(cert, ys, data)


def test_certify_tuples_fails_a_perturbed_tuple_at_the_same_level():
    for data, orbits in _sector_orbits():
        for level in range(data.N):
            if not data.l[level]:
                continue
            tuples = []
            for o in orbits:
                ys = list(o.tuple_y)
                cs = list(ys[level].coeffs)
                cs[0] += 1e-6
                ys[level] = Poly(CC, cs)
                tuples.append(ys)
            got = certify_tuples(tuples, data)
            want = [poly_loop_certificate(t, data) for t in tuples]
            assert all(isinstance(c, NotCertified) for c in got)
            assert [str(c) for c in got] == want
            # the first failing level: the perturbed one or its neighbour below
            assert all(str(c).split(":")[0] in (f"level {level}", f"level {level + 1}")
                       for c in got)


def test_certify_tuples_mixes_exact_and_floating_tuples():
    data = rational_data()
    exact = [parse_poly("x-1/2", QQ)]
    root = gamma([[R3 + 0j]])[0]
    got = certify_tuples([exact, [root], [root, root], [Poly.zero(CC)], [Poly(CC, [2.0, 6.0])]],
                         data)
    assert isinstance(got[0], NotCertified) and str(got[0]).startswith("level 1: nonzero")
    assert_certifies_as_the_poly_loop(got[1], [root], data)
    assert isinstance(got[2], DimensionMismatch)
    assert isinstance(got[3], ZeroPolynomial)
    # y = 6x + 2, a divisor with lead 6, each quotient term scaled by its
    # inverse as div_rem does: w = -6 T' = -18x^2 + 6 leaves w(-1/3) = 4
    assert str(got[4]) == poly_loop_certificate([Poly(CC, [2.0, 6.0])], data)
    assert str(got[4]).startswith("level 1: remainder norm 4.000e+00 exceeds 1.900e-08")


def clusters_by_pairs(pts, good, l):
    """_clusters as a loop over (key, head) pairs: each key is compared with
    every cluster head in turn and joins the first one within the radius."""
    idx = np.nonzero(good)[0]
    keys = bethe._orbit_keys(pts[idx], l)
    sort_keys = [bethe._sort_key(key) for key in keys.tolist()]
    clusters = []
    for j in sorted(range(len(idx)), key=sort_keys.__getitem__):
        key = keys[j]
        kscale = 1.0 + np.abs(key).max()
        for first, rows, _ in clusters:
            if np.abs(key - first).max() < bethe._DEDUP_RADIUS * kscale:
                rows.append(int(idx[j]))
                break
        else:
            clusters.append((key, [int(idx[j])], sort_keys[j]))
    return [(rows, sort_key) for _, rows, sort_key in clusters]


@pytest.mark.parametrize("l", [(1,), (3,), (2, 1)], ids=str)
def test_clusters_equal_the_pairwise_loop_on_planted_near_duplicates(l):
    rng = np.random.default_rng(7)
    L = sum(l)
    base = rng.normal(size=(30, L)) + 1j * rng.normal(size=(30, L))
    # near-duplicates of every third row, at 1e-9 to 1e-5 of it
    near = base[::3] + 10.0 ** rng.uniform(-9, -5, size=(10, 1)) * (
        rng.normal(size=(10, L)) + 1j * rng.normal(size=(10, L)))
    pts = np.vstack([base, near, base[:5]])
    good = rng.uniform(size=len(pts)) < 0.9
    got = bethe._clusters(pts, good, l)
    assert got == clusters_by_pairs(pts, good, l)
    assert any(len(rows) > 1 for rows, _ in got)


def test_clusters_join_the_first_of_two_near_heads():
    # heads a = 0 and b = 1.5e-6 i are apart; c lies within 1e-6 of both and
    # sorts after both, so it joins a, the head made first
    pts = np.array([[0j], [1.5e-6j], [1e-7 + 0.75e-6j]])
    got = bethe._clusters(pts, np.ones(3, dtype=bool), (1,))
    assert [rows for rows, _ in got] == [[0, 2], [1]]
    assert got == clusters_by_pairs(pts, np.ones(3, dtype=bool), (1,))


# -- sector bookkeeping ------------------------------------------------------------

def test_translate_rational_variant():
    basic, sector = translate_master(rational_data())
    assert (basic.d, basic.N) == (3, 1)
    assert all(a == (1, 0) for _, a in basic.points)
    assert basic.infinity == (1, 0)
    assert sector.labels == (3, 1) and sector.w == (2, 1)
    assert intersection_number(basic) == 2


def test_translate_anchor():
    basic, sector = translate_master(anchor_data())
    assert (basic.d, basic.N) == (3, 2)
    assert dict((complex(z), a) for z, a in basic.points) == {0j: (1, 1, 0), 1 + 0j: (1, 0, 0)}
    assert basic.infinity == (0, 0, 0)
    assert sector.labels == (3, 2, 1) and sector.w == (3, 2, 1)
    assert intersection_number(basic) == 1


def test_master_sector_round_trip():
    for data in (rational_data(), cuberoots_data(), anchor_data()):
        basic, sector = translate_master(data)
        back = master_from_sector(basic, sector.w)
        assert back.l == data.l
        assert [(m) for _, m in back.points] == [m for _, m in data.points]


def test_identity_sector_sizes():
    basic, _ = translate_master(rational_data())
    ident = master_from_sector(basic, (1, 2))
    assert ident.l == (3,)
    specs = sectors_of(basic)
    assert specs[0].w == (1, 2)              # identity first
    assert {s.w for s in specs} == {(1, 2), (2, 1)}


def test_sector_lengths_guards():
    basic, _ = translate_master(anchor_data())
    with pytest.raises(DimensionMismatch):
        sector_lengths((3, 2, 1), (1, 2, 3), basic.K_degrees[:-1])
    with pytest.raises(DimensionMismatch):
        SectorSpec((1, 2, 3), (1, 2, 3))     # labels must decrease
    with pytest.raises(DimensionMismatch):
        SectorSpec((3, 2, 1), (1, 1, 2))
    # a steep divisor ladder (1, 1, x^3, x^3) leaves no room for the small
    # labels first
    ladder = (0, 0, 3, 3)
    assert sector_lengths((3, 2, 1), (1, 2, 3), ladder) == (3, 1)
    with pytest.raises(EmptySector):
        sector_lengths((3, 2, 1), (3, 2, 1), ladder)


def test_no_critical_points():
    # l = (1,) at one point: no space realizes the data
    for weight, message in (
        # one simple weight: labels come out (1, 1) and collide
        (1, r"labels \(1, 1\) collide"),
        # weight 2: the labels (2, 1) name the point sector, so the data are
        # their own point sector, yet d = 2 leaves no room for (2, 0) at 0;
        # solve_critical must still translate them to find that out
        (2, r"leading entry 2 exceeds d - N = 1"),
    ):
        data = MasterData(QQ, (1,), ((0, (weight,)),))
        with pytest.raises(NotRealizable, match=message):
            translate_master(data)
        assert solve_critical(data, starts=4, seed=0) == []


def test_empty_point_solver():
    data = MasterData(QQ, (0,), ((0, (1,)),))
    orbits = solve_critical(data, starts=4, seed=0)
    assert len(orbits) == 1 and orbits[0].multiplicity == 1
    assert orbits[0].point == ((),)


# -- cleared polynomial form --------------------------------------------------------

def test_clear_denominators_rational():
    sys_ = clear_denominators(rational_data())
    assert sys_.nvars == 1 and len(sys_.polys) == 1
    # F = w r = -T'(t) for T = t^3 - t: the sign is that of the residual
    assert sys_.polys[0] == MPoly(1, {(2,): Fraction(-3), (0,): Fraction(1)})


def test_clear_denominators_anchor_roots():
    sys_ = clear_denominators(anchor_data())
    vals = [f.eval([Fraction(1, 3), Fraction(2, 3)]) for f in sys_.polys]
    assert vals == [0, 0]


@pytest.mark.parametrize("data", [
    MasterData(QQ, (3,), ((0, (1,)), (1, (1,)), (-1, (1,)), (2, (1,)))),
    MasterData(QQ, (2, 1), ((0, (1, 0)), (1, (0, 1)), (-1, (1, 1)))),
    MasterData(QQ, (2, 1), ((0, (2, 0)), (1, (1, 1)))),
    cuberoots_data((2,)),
])
def test_critical_equations_match_cleared_system(data):
    # F = w r and its Jacobian are clear_denominators and its derivatives,
    # equation by equation with the sign; r is the residual
    rng = np.random.default_rng(11)
    L = data.size()
    t = rng.normal(size=(5, L)) + 1j * rng.normal(size=(5, L))
    zs, W = _embedded_weights(data)
    F, J, r = _critical_equations(t, _coupling_matrix(data.l), zs, W)
    polys = clear_denominators(data).map_coeffs(lambda v: complex(embed_scalar(v))).polys
    for row, f_row, j_row, r_row in zip(t, F, J, r):
        f_ref = np.array([f.eval(row) for f in polys])
        j_ref = np.array([[f.deriv(q).eval(row) for q in range(L)] for f in polys])
        assert np.abs(f_ref - f_row).max() < 1e-12 * np.abs(f_ref).max()
        assert np.abs(j_ref - j_row).max() < 1e-12 * np.abs(j_ref).max()
        point, pos = [], 0
        for li in data.l:
            point.append(tuple(row[pos:pos + li]))
            pos += li
        want = [v for lev in bethe_residual(point, data) for v in lev]
        assert np.abs(np.array(want) - r_row).max() < 1e-12 * np.abs(want).max()


# -- the solver ---------------------------------------------------------------------

def test_solver_rational_variant():
    data = rational_data()
    orbits = solve_critical(data, starts=80, seed=1)
    assert len(orbits) == 2
    for orbit, want in zip(orbits, (-R3, R3)):
        t = orbit.point[0][0]
        assert abs(t - want) < 1e-8
        assert orbit.multiplicity == 1 and orbit.isolated
        assert orbit.residual < 1e-10
        assert abs(orbit.tuple_y[0].eval(complex(t))) < 1e-12
    assert sum(o.multiplicity for o in orbits) == 2


def test_solver_cuberoots_double_orbit():
    orbits = solve_critical(cuberoots_data(), starts=60, seed=0)
    assert len(orbits) == 1
    assert abs(orbits[0].point[0][0]) < 1e-8
    assert orbits[0].multiplicity == 2


def test_solver_anchor():
    orbits = solve_critical(anchor_data(), starts=60, seed=3)
    assert len(orbits) == 1
    (t1,), (t2,) = orbits[0].point
    assert abs(t1 - 1 / 3) < 1e-8 and abs(t2 - 2 / 3) < 1e-8
    assert orbits[0].multiplicity == 1


def test_solver_identity_sector_components():
    basic, _ = translate_master(rational_data())
    ident = master_from_sector(basic, (1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orbits = solve_critical(ident, starts=250, seed=5)
    live = [o for o in orbits if not o.isolated]
    assert len(live) == 2
    assert all(o.dimension == 1 and o.multiplicity == 1 for o in live)
    assert sum(o.multiplicity for o in orbits) == 2


def test_orbits_identified_by_tuple():
    # a conjugate pair of coordinates whose real parts differ by rounding is
    # one orbit, however its coordinates sort
    data = MasterData(QQ, (2,), tuple((z, (1,)) for z in (0, 1, -1, 2)))
    report = run_verify(data, starts=200, seed=0)["report"]
    sec = report["sectors"]["own"]
    assert report["verdict"] == "MATCH"
    assert [r["multiplicity"] for r in sec["orbits"]] == [1, 1]


@pytest.mark.parametrize("l", [(5,), (2, 1), (3, 2, 1), (0, 2)], ids=str)
def test_orbit_keys_equal_np_poly_row_by_row(l):
    # the batched elementary symmetric functions against np.poly of each
    # level, whose coefficients are (-1)^k e_k
    rng = np.random.default_rng(3)
    pts = 3 * (rng.normal(size=(40, sum(l))) + 1j * rng.normal(size=(40, sum(l))))
    keys = bethe._orbit_keys(pts, l)
    assert keys.shape == pts.shape
    for row, key in zip(pts, keys):
        want = []
        pos = 0
        for li in l:
            want.extend(np.atleast_1d(np.poly(row[pos:pos + li]))[1:] * (-1.0) ** np.arange(1, li + 1))
            pos += li
        assert np.abs(key - want).max() <= 1e-14 * (1 + np.abs(want).max())


def test_collision_samples_dropped():
    # near t = (e, -e) the pole terms at z = 0 cancel, so the residual alone
    # does not reject this collision of two coordinates on a marked point
    zs = (-2, -8, 0, 8)
    data = MasterData(QQ, (2,), tuple((z, (1,)) for z in zs))
    report = run_verify(data, starts=200, seed=0)["report"]
    assert report["verdict"] == "MATCH"
    # the real orbit prints as plain reals, without underflowed imaginary parts
    points = [o["point"][0] for o in report["sectors"]["own"]["orbits"]]
    assert any(all("j" not in t for t in p) for p in points)
    for t in (complex(t) for p in points for t in p):
        assert t.imag == 0 or abs(t.imag) >= sys.float_info.min
    for orbit in solve_critical(data, starts=200, seed=0):
        a, b = orbit.point[0]
        assert min(abs(a - b), *(abs(t - z) for t in (a, b) for z in zs)) > 1e-3


# sl2 l = (k,), weight 1 at the points 0, 1, -1, 2, ...; two oracles that do
# not use the code under test: the count C(n,k) - C(n,k-1), and
# Mukhin-Tarasov-Varchenko (Ann. Math. 2009): at real marked points every
# critical orbit is simple and its tuple y has real coefficients.  The
# benchmark's ladder, and n12k6 with its 132 orbits.
SL2_LADDER = [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (10, 5), (12, 6)]


def ladder_points(n):
    # 0, 1, -1, 2, -2, ...: the first n integers by distance from 0
    return [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(n)]


def sl2_ladder_data(n, k):
    return MasterData(QQ, (k,), tuple((z, (1,)) for z in ladder_points(n)))


def sl2_ladder_orbits(n, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_critical(sl2_ladder_data(n, k), starts=200, seed=0)


@pytest.mark.parametrize("n,k", SL2_LADDER)
def test_sl2_ladder_count_is_closed_form(n, k):
    orbits = sl2_ladder_orbits(n, k)
    assert sum(o.multiplicity for o in orbits) == math.comb(n, k) - math.comb(n, k - 1)


@pytest.mark.parametrize("n,k", SL2_LADDER)
def test_sl2_ladder_orbits_simple_and_real(n, k):
    for o in sl2_ladder_orbits(n, k):
        assert o.isolated and o.multiplicity == 1
        coeffs = [complex(c) for y in o.tuple_y for c in y.coeffs]
        assert max(abs(c.imag) for c in coeffs) <= 1e-7 * max(1.0, *(abs(c) for c in coeffs))


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _real_inputs():
    # master data with weight omega_1 at real marked points: the ladder,
    # sl3 (2,1) at 4 to 6 points, and the shipped variant_rational
    return ([sl2_ladder_data(n, k) for n, k in SL2_LADDER]
            + [MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in ladder_points(n)))
               for n in (4, 5, 6)]
            + [load_problem(str(PROBLEMS / "variant_rational.json"))])


_REAL_IDS = ([f"sl2-n{n}-k{k}" for n, k in SL2_LADDER]
             + [f"sl3-n{n}-l21" for n in (4, 5, 6)] + ["variant_rational"])


@pytest.mark.parametrize("data", _real_inputs(), ids=_REAL_IDS)
def test_real_marked_points_need_no_clusters_hessian_or_climb(data, monkeypatch):
    # every eigen-point _accepted keeps is its own simple orbit (MTV), so
    # none of the tools that group samples or read multiplicities runs
    def refuse(*args, **kwargs):
        raise AssertionError("called at real marked points")

    for name in ("_clusters", "_hessian_sigma", "clear_denominators", "local_multiplicity"):
        monkeypatch.setattr(bethe, name, refuse)
    assert gaudin.real_sites(data)
    orbits = solve_critical(data, starts=200, seed=0)
    assert orbits and all(o.multiplicity == 1 and o.hits == 1 for o in orbits)
    assert len(orbits) == intersection_number(translate_master(data)[0])


@pytest.mark.parametrize("data", _real_inputs()[:-1], ids=_REAL_IDS[:-1])
def test_real_ladder_tuples_are_pairwise_distinct(data):
    # nothing merges eigen-points at real marked points, so MTV's simple
    # spectrum is checked here: no two reported tuples y agree to 1e-6
    # relative (coefficients by np.poly, not the solver's _orbit_keys)
    (sec,) = run_verify(data)["report"]["sectors"].values()
    keys = np.array([np.concatenate([np.poly([complex(v) for v in lev])[1:] for lev in o["point"]])
                     for o in sec["orbits"]])
    gap = np.abs(keys[:, None] - keys[None]).max(axis=2)
    np.fill_diagonal(gap, np.inf)
    scale = 1.0 + np.abs(keys).max(axis=1)
    assert (gap >= 1e-6 * np.maximum(scale[:, None], scale[None])).all()


def test_sl2_n14k7_reads_match_with_every_orbit_simple():
    # one of its 429 orbits has a scaled Hessian sigma (6.2e-7) below
    # _MULT_TOL; read off the Hessian it climbed Macaulay to 3 (OVERCOUNT 431)
    data = sl2_ladder_data(14, 7)
    out = run_verify(data)
    (sec,) = out["report"]["sectors"].values()
    assert out["report"]["verdict"] == "MATCH" and out["report"]["lr_target"] == 429
    assert sec["multiplicity_sum"] == len(sec["orbits"]) == 429
    assert all(o["multiplicity"] == 1 and o["hits"] == 1 for o in sec["orbits"])
    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    pts = np.array([[complex(v) for lev in o["point"] for v in lev] for o in sec["orbits"]])
    assert bethe._hessian_sigma(pts, C, zs, W).min() < _MULT_TOL


def rou4_data():
    # z_s = 1 + i^s over Q(i), l = (1,), weight 1
    field = make_extension("x^2+1")
    return MasterData(field, (1,), tuple((1 + field.gen ** s, (1,)) for s in range(4)))


def test_roots_of_unity_identity_sector_is_built_from_the_point_sector():
    # under --sector all the identity sector l = (4,) is built from the point
    # sector l = (1,): one 1-dimensional component per point-sector orbit,
    # with its multiplicity, so both sectors sum alike
    report = run_verify(rou4_data(), sector="all", starts=200, seed=0)["report"]
    ident, point = report["sectors"]["1,2"], report["sectors"]["2,1"]
    assert ident["l"] == [4] and point["l"] == [1] and report["lr_target"] == 3
    assert all(o["dimension"] == 1 and not o["isolated"] for o in ident["orbits"])
    assert (sorted(o["multiplicity"] for o in ident["orbits"])
            == sorted(o["multiplicity"] for o in point["orbits"]))
    assert ident["multiplicity_sum"] == point["multiplicity_sum"]


@pytest.mark.xfail(strict=True, reason="F3: the point sector reports the triple point "
                   "t = 1 as 3 fragments of multiplicity 2, and the identity sector "
                   "carries them over: 6, not 3")
def test_roots_of_unity_identity_sector_sums_to_target():
    report = run_verify(rou4_data(), sector="all", starts=200, seed=0)["report"]
    assert report["sectors"]["1,2"]["multiplicity_sum"] == report["lr_target"] == 3


@pytest.mark.xfail(strict=True, reason="certificate false negative: at seeds 0, 5, 6 and 9 one "
                   "built orbit of the identity sector fails level 1 by 1.2-5x (remainder "
                   "norms 4.3e-5 to 1.3e-4 against bounds 2.2e-5 to 6.5e-5), though its "
                   "log-gradient is below 3.1e-15, so verify reads UNDERCOUNT")
def test_sl3_n6_identity_sector_certifies_at_every_seed():
    # sl3 l = (3,1), weight (1,0) at 0, +-1, +-2, 3
    data = MasterData(QQ, (3, 1), tuple((z, (1, 0)) for z in ladder_points(6)))
    verdicts = [run_verify(data, sector="identity", seed=s)["report"]["verdict"]
                for s in range(10)]
    assert verdicts == ["MATCH"] * 10


# -- sectors built from the point sector ---------------------------------------------

# sl3 l = (2,1), weight (1,0) at 0, +-1, +-2: six spaces, six sectors
SL3_N5 = MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2)))


def _cell_dimension(w):
    # inversions of the reversed permutation: 0 for (N+1, .., 1)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] < w[j])


@pytest.mark.parametrize("basic", [
    *[translate_master(sl2_ladder_data(n, k))[0] for n, k in SL2_LADDER],
    translate_master(SL3_N5)[0],
    translate_master(MasterData(QQ, (2, 2), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2))))[0],
    translate_master(anchor_data())[0],
    *[_basic_of(load_problem(str(PROBLEMS / name))) for name in
      ("example_cuberoots.json", "example_cuberoots_master.json", "variant_rational.json")],
], ids=[f"sl2-n{n}-k{k}" for n, k in SL2_LADDER]
    + ["sl3-l21", "sl3-l22", "sl3-l11", "cuberoots", "cuberoots-master", "rational"])
def test_point_sector_strictly_minimises_level_sizes(basic):
    sizes = {spec.w: sum(master_from_sector(basic, spec.w).l) for spec in sectors_of(basic)}
    point = point_sector(basic.N)
    assert point == tuple(range(basic.N + 1, 0, -1)) and point in sizes
    assert all(sizes[w] > sizes[point] for w in sizes if w != point)


@pytest.mark.parametrize("basic", [
    translate_master(SL3_N5)[0],
    translate_master(MasterData(QQ, (2, 2), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2))))[0],
    *[_basic_of(load_problem(str(PROBLEMS / name))) for name in
      ("example_cuberoots.json", "example_cuberoots_master.json", "variant_rational.json")],
], ids=["sl3-l21", "sl3-l22", "cuberoots", "cuberoots-master", "rational"])
def test_sectors_share_points_and_weights(basic):
    # only the level sizes differ between sectors, so build_sector may hand
    # the data of any sector to induced_space
    point = master_from_sector(basic, point_sector(basic.N))
    for spec in sectors_of(basic):
        data = master_from_sector(basic, spec.w)
        assert data.points == point.points and data.T == point.T


def test_sl3_every_sector_built_from_the_point_sector():
    report = run_verify(SL3_N5, sector="all", starts=200, seed=0)["report"]
    sectors = report["sectors"]
    assert len(sectors) == 6 and report["lr_target"] == 6
    for label, sec in sectors.items():
        dim = _cell_dimension(tuple(int(v) for v in label.split(",")))
        assert len(sec["orbits"]) == 6 and sec["verdict"] == "MATCH"
        for o in sec["orbits"]:
            assert o["dimension"] == dim and o["isolated"] == (label == "3,2,1")
            assert o["certified"] == "certified"
    assert sorted(_cell_dimension(tuple(map(int, k.split(",")))) for k in sectors) == [
        0, 1, 1, 2, 2, 3]


def test_build_sector_expands_one_flag_per_orbit(monkeypatch):
    # the y_i of a built orbit are read off one expansion of its flag f_1..f_N
    basic, _ = translate_master(SL3_N5)
    orbits = solve_critical(master_from_sector(basic, point_sector(2)), starts=200, seed=0)
    sizes = []
    real = bethe.partial_wronskians
    monkeypatch.setattr(bethe, "partial_wronskians",
                        lambda polys: sizes.append(len(polys)) or real(polys))
    built = build_sector(master_from_sector(basic, (1, 2, 3)), basic, orbits, seed=0)
    assert len(built) == len(orbits) == 6
    assert sizes == [2] * len(orbits)


def test_built_components_agree_with_slicing():
    # random slicing through each built point (component_multiplicity) finds
    # the cell's dimension and the point-sector multiplicity; only sectors
    # of at most 6 coordinates, (5,1) and (2,2), since slicing grows fast
    basic, _ = translate_master(SL3_N5)
    orbits = solve_critical(master_from_sector(basic, point_sector(2)), starts=200, seed=0)
    checked = []
    for spec in sectors_of(basic):
        data = master_from_sector(basic, spec.w)
        if spec.w == point_sector(2) or data.size() > 6:
            continue
        system = clear_denominators(data).map_coeffs(CC.coerce)
        rng = np.random.default_rng(2)
        for o in build_sector(data, basic, orbits, seed=0):
            flat = [t for lev in o.point for t in lev]
            assert component_multiplicity(system, flat, rng) == (o.dimension, o.multiplicity)
        checked.append(data.l)
    assert sorted(checked) == [(2, 2), (5, 1)]


# -- Macaulay at degenerate and solver points -----------------------------------------

@pytest.mark.parametrize("data,t,mult,trace", [
    (rou4_data(), 1, 3, (1, 2, 3, 3)),
    (load_problem(str(PROBLEMS / "example_cuberoots_master.json")), 0, 2, (1, 2, 2)),
], ids=["rou4-t1", "cuberoots-t0"])
def test_degenerate_points_exact_and_embedded(data, t, mult, trace):
    # object-dtype Taylor tensors over Q(i) and Q(w), and the same points embedded
    system = clear_denominators(data)
    exact = local_multiplicity(system, (data.ring.coerce(t),))
    assert (exact.multiplicity, exact.trace, exact.mode) == (mult, trace, "exact")
    numeric = local_multiplicity(system.map_coeffs(CC.coerce), (CC.coerce(t),))
    assert (numeric.multiplicity, numeric.trace, numeric.mode) == (mult, trace, "numeric")


def test_numeric_climb_builds_no_mpoly(monkeypatch):
    # the dual climb reads the Taylor tensors: no shifted or rescaled MPoly
    data = master_from_sector(translate_master(SL3_N5)[0], point_sector(2))
    orbit = solve_critical(data, starts=200, seed=0)[0]
    system = clear_denominators(data).map_coeffs(CC.coerce)
    built = []
    init = MPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MPoly, "__init__", counting_init)
    res = local_multiplicity(system, tuple(bethe._flat(orbit.point)))
    assert res.multiplicity == 1 and built == []


def test_own_sector_that_is_not_the_point_sector():
    # l = (3,) at 0, +-1 is the identity sector; its point sector is l = (1,)
    data = MasterData(QQ, (3,), tuple((z, (1,)) for z in (0, 1, -1)))
    basic, sector = translate_master(data)
    assert sector.w != point_sector(basic.N)
    report = run_verify(data, starts=200, seed=0)["report"]
    orbits = report["sectors"]["own"]["orbits"]
    assert report["verdict"] == "MATCH" and report["lr_target"] == 2
    assert [(o["dimension"], o["multiplicity"]) for o in orbits] == [(1, 1), (1, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(solve_critical(data, starts=200, seed=0)) == 2


def test_empty_point_sector_builds_the_other_sectors():
    # l = (0,) at 0 and 1 is the point sector itself; its one space carries
    # the identity sector l = (3,)
    data = MasterData(QQ, (0,), ((0, (1,)), (1, (1,))))
    report = run_verify(data, sector="all", starts=200, seed=0)["report"]
    assert report["verdict"] == "MATCH" and report["lr_target"] == 1
    sectors = report["sectors"]
    assert sectors["2,1"]["l"] == [0] and sectors["1,2"]["l"] == [3]
    assert [o["dimension"] for o in sectors["1,2"]["orbits"]] == [1]
    assert all(sec["verdict"] == "MATCH" for sec in sectors.values())


def test_no_space_when_the_point_sector_is_empty():
    # ramification (1,1) at 0 and (2,0) at infinity: the intersection number
    # is 0, the point sector has l = (-1,), and the identity sector l = (1,)
    # has no critical points either
    basic = validate_basic(QQ, 3, 1, ((0, (1, 1)),), (2, 0))
    assert [spec.w for spec in sectors_of(basic)] == [(1, 2)]
    report = run_verify(basic, sector="all", starts=40, seed=0)["report"]
    assert report["lr_target"] == 0 and report["verdict"] == "MATCH"
    assert report["sectors"]["1,2"]["orbits"] == []
    assert solve_critical(master_from_sector(basic, (1, 2)), starts=40, seed=0) == []


def test_not_isolated_in_the_point_sector_propagates(monkeypatch):
    # every orbit of the point sector is isolated; a sample where the dual
    # spaces keep growing is an error, not a component
    def refuse(*args, **kwargs):
        raise NotIsolated("dual spaces still growing")

    monkeypatch.setattr(bethe, "local_multiplicity", refuse)
    # the cube roots' double point: a simple orbit never reaches the climb
    with pytest.raises(NotIsolated):
        solve_critical(cuberoots_data(), starts=40, seed=0)


def test_conjugate_pair_prints_in_one_order():
    # the real parts of the pair differ in the last bit; either way round the
    # member with negative imaginary part prints first
    a = 0.3
    b = float(np.nextafter(a, 1.0))
    for row in ([complex(a, 1.0), complex(b, -1.0)], [complex(b, 1.0), complex(a, -1.0)]):
        (level,) = bethe._canonical(np.array(row), (2,))
        assert [v.imag for v in level] == [-1.0, 1.0]


def test_isolated_is_dimension_zero():
    one = (parse_poly("1", QQ),)
    assert bethe.CriticalOrbit(((),), 0.0, 1, one).isolated
    assert not bethe.CriticalOrbit(((),), 0.0, 1, one, dimension=2).isolated


def _well_conditioned(rng, L):
    # a unitary matrix times a diagonal in [1, 2]: 2-norm condition number <= 2
    Q = np.linalg.qr(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))[0]
    return Q * rng.uniform(1.0, 2.0, size=L)


# per size L: the matrices that must leave LU for the pseudoinverse
REFUSED_BY_LU = {
    1: [[[0.0]]],                                        # zero
    2: [[[1.0, 2.0], [2.0, 4.0]],                        # rank one
        np.diag([1.0, 0.1 / bethe._LU_COND])],           # kappa_1 = 10 _LU_COND
    3: [np.diag([1.0, 1.0, 0.1 / bethe._LU_COND])],
}


@pytest.mark.parametrize("L", sorted(REFUSED_BY_LU))
def test_gn_step_rows(L, monkeypatch):
    # three well-conditioned rows, the rows LU refuses, one non-finite row
    rng = np.random.default_rng(L)
    J = np.array([_well_conditioned(rng, L) for _ in range(3)]
                 + REFUSED_BY_LU[L] + [np.eye(L)], dtype=complex)
    J[-1, 0, 0] = np.nan
    F = rng.normal(size=(len(J), L)) + 1j * rng.normal(size=(len(J), L))
    refused = range(3, len(J) - 1)
    pinv = np.linalg.pinv
    to_pinv = []
    monkeypatch.setattr(np.linalg, "pinv", lambda A: to_pinv.append(len(A)) or pinv(A))

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def pinv_step(i):
        return -(pinv(J[i:i + 1]) @ F[i:i + 1, :, None])[:, :, 0]

    step = bethe._gn_step(F, J)  # raises no LinAlgError
    for i in range(3):
        ref = pinv_step(i)
        assert np.abs(step[i] - ref).max() <= 1e-12 * np.abs(ref).max()
    for i in refused:
        assert np.array_equal(bits(step[i:i + 1]), bits(pinv_step(i)))
    assert not step[-1].any()
    assert to_pinv == [len(refused)]
    # each row's step is bitwise its step alone
    for i in range(len(J)):
        assert np.array_equal(bits(bethe._gn_step(F[i:i + 1], J[i:i + 1])), bits(step[i:i + 1]))


@pytest.mark.parametrize("L", [1, 2])
def test_gn_step_singular_row_keeps_others_on_lu(L, monkeypatch):
    # np.linalg.inv refuses the whole batch for one exactly singular matrix;
    # the step refuses that row only
    rng = np.random.default_rng(10 + L)
    J = np.array([_well_conditioned(rng, L) for _ in range(3)] + REFUSED_BY_LU[L][:1],
                 dtype=complex)
    F = rng.normal(size=(4, L)) + 1j * rng.normal(size=(4, L))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(J)
    lu = -(np.linalg.inv(J[:3]) @ F[:3, :, None])[:, :, 0]
    pinv = np.linalg.pinv
    to_pinv = []
    monkeypatch.setattr(np.linalg, "pinv", lambda A: to_pinv.append(len(A)) or pinv(A))
    step = bethe._gn_step(F, J)
    assert to_pinv == [1]
    assert np.array_equal(step[:3].view(np.uint64), lu.view(np.uint64))


def _newton_full_batch(pts, C, zs, W):
    # every start steps every time: the loop _newton must reproduce bitwise
    for _ in range(bethe._MAX_GN_ITER):
        F, J, _ = _critical_equations(pts, C, zs, W)
        pts = pts + bethe._gn_step(F, J)
    return pts


SL3_L21 = MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2)))
# weight 2 at one point: outside the Bethe route, so solved by the multistart
WEIGHT_TWO = MasterData(QQ, (1,), ((0, (1,)), (1, (2,)), (-1, (1,))))
SL2_W2_L2 = MasterData(QQ, (2,), ((0, (2,)), (1, (1,)), (-1, (1,)), (2, (1,))))
# sl2 l = (3,) at 0, +-1, +-2, 3: many starts run onto collisions
SL2_L3 = MasterData(QQ, (3,), tuple((z, (1,)) for z in (0, 1, -1, 2, -2, 3)))


def _newton_setup(data, far_factor=bethe._FAR_FACTOR):
    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    radius = 2.0 * (np.abs(zs).max() + 1.0)
    return C, zs, W, radius, far_factor * radius


def _draw_starts(data, radius):
    # the 200 starts solve_critical(data, starts=200, seed=0) draws
    rng = np.random.default_rng(0)
    return bethe._rand_points(rng, 200, data.size(), radius)


@pytest.mark.parametrize("data,far_factor", [
    pytest.param(MasterData(QQ, (2,), tuple((z, (1,)) for z in (0, 1, -1, 2))),
                 bethe._FAR_FACTOR, id="sl2-l2"),
    pytest.param(SL3_L21, bethe._FAR_FACTOR, id="sl3-l21"),
    pytest.param(cuberoots_data(), bethe._FAR_FACTOR, id="rou3"),
    pytest.param(SL2_L3, bethe._FAR_FACTOR, id="sl2-l3"),
    # no end point of the cases above lies beyond the far cut; with the cut
    # at a fifth of the start radius critical samples do
    pytest.param(SL3_L21, 0.2, id="sl3-l21-tight-cut"),
])
def test_newton_matches_full_batch_loop(data, far_factor, monkeypatch):
    # a start retired near a collision ends elsewhere than in the full loop,
    # but the filter rejects it in both; every accepted sample is the full
    # loop's, bit for bit
    C, zs, W, radius, far_cut = _newton_setup(data, far_factor)
    outs, masks = [], []
    for newton in (_newton_full_batch, bethe._newton):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = newton(_draw_starts(data, radius), C, zs, W)
            masks.append(bethe._accepted(out, C, zs, W, far_cut)[0])
        outs.append(out)
    assert np.array_equal(masks[0], masks[1]) and masks[0].any()
    bits = [out.view(np.uint64) for out in outs]
    assert np.array_equal(bits[0][masks[0]], bits[1][masks[1]])
    differ = (bits[0] != bits[1]).any(axis=1)
    assert not (differ & (masks[0] | masks[1])).any()
    # the filter rejects every end point beyond the far cut
    far = ~(np.abs(outs[1]).max(axis=1) < far_cut)
    assert not (far & masks[1]).any()
    assert far_factor == bethe._FAR_FACTOR or far.any()
    # and the frozen starts were really left out
    rows = []
    equations = bethe._critical_equations
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bethe._newton(_draw_starts(data, radius), C, zs, W)
    assert sum(rows) < 200 * bethe._MAX_GN_ITER


def test_each_start_drawn_once(monkeypatch):
    # a start that leaves the far cut keeps its path: solve_critical draws
    # exactly ``starts`` points, however tight the cut
    monkeypatch.setattr(bethe, "_FAR_FACTOR", 2.0)
    drawn = []
    rand_points = bethe._rand_points

    def counting(*args):
        pts = rand_points(*args)
        drawn.append(len(pts))
        return pts

    monkeypatch.setattr(bethe, "_rand_points", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solve_critical(SL2_W2_L2, starts=200, seed=0)
    assert drawn == [200]


@pytest.mark.parametrize("L,radius", [(1, 4.0), (3, 6.0), (4, 2.5)])
def test_starts_drawn_in_one_call_as_one_at_a_time(L, radius):
    # one (starts, 2, L) draw gives, bit for bit, the starts of L radii then
    # L angles per start, and leaves the generator where they left it
    def one_start(rng):
        r = radius * np.sqrt(rng.uniform(size=L))
        ang = rng.uniform(size=L) * 2 * np.pi
        return r * np.exp(1j * ang)

    old, new = np.random.default_rng(7), np.random.default_rng(7)
    want = np.array([one_start(old) for _ in range(50)])
    got = bethe._rand_points(new, 50, L, radius)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("data", [SL2_W2_L2, anchor_data()], ids=["sl2-w2-l2", "anchor"])
def test_solver_matches_full_batch_loop(data, monkeypatch):
    # retiring starts near collisions changes no orbit the multistart reports
    def orbits():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [(o.point, o.residual, o.multiplicity, o.hits, o.isolated, o.dimension)
                    for o in solve_critical(data, starts=200, seed=0)]

    retiring = orbits()
    monkeypatch.setattr(bethe, "_newton", _newton_full_batch)
    assert retiring and orbits() == retiring


def test_start_near_collision_is_retired(monkeypatch):
    # a start inside the collision neighbourhood is stepped once, then left
    # out: iterated on, it would run onto the triple collision at 0 and take
    # all _MAX_GN_ITER steps
    C, zs, W, _, far_cut = _newton_setup(SL2_L3)
    start = np.array([[1e-8, 2e-8, 0.4 + 0.3j]])
    rows = []
    equations = bethe._critical_equations
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = bethe._newton(start.copy(), C, zs, W)
        assert rows == [1]
        assert bethe._near_collision(start, C, zs, W).all()
        assert not bethe._accepted(out, C, zs, W, far_cut)[0].any()


def test_cleared_system_embedded_once(monkeypatch):
    # solve_critical embeds the cleared system in CC once; local_multiplicity
    # then converts only the coordinates of each point it tests
    import wroncrit.multiplicity as mult

    seen = []
    embed_scalar = mult.embed_scalar
    monkeypatch.setattr(mult, "embed_scalar", lambda v: seen.append(v) or embed_scalar(v))
    orbits = solve_critical(cuberoots_data(), starts=40, seed=0)
    assert orbits and seen
    assert all(isinstance(v, (float, complex)) for v in seen)


def test_solver_deterministic():
    a = solve_critical(rational_data(), starts=40, seed=9)
    b = solve_critical(rational_data(), starts=40, seed=9)
    assert [o.point for o in a] == [o.point for o in b]
    assert [o.hits for o in a] == [o.hits for o in b]


# -- positive-dimensional helpers ----------------------------------------------------

def test_component_multiplicity_direct():
    rng = np.random.default_rng(5)
    xy = MultivariateSystem(("x", "y"), (MPoly(2, {(1, 1): 1 + 0j}),))
    assert component_multiplicity(xy, (0j, 1 + 0j), rng) == (1, 1)
    xx = MultivariateSystem(("x", "y"), (MPoly(2, {(2, 0): 1 + 0j}),))
    assert component_multiplicity(xx, (0j, 1.3 + 0j), rng) == (1, 2)


def test_induced_space_span():
    # tuple (x) of the cube-roots problem generates span{x, x^3 + 2}
    Q = induced_space([parse_poly("x", QQ).to_ring(CC)], cuberoots_data())
    assert Q.shape == (4, 2)
    proj = Q @ Q.conj().T
    for coeffs in ([0, 1, 0, 0], [2, 0, 0, 1]):
        v = np.array(coeffs, dtype=complex)
        assert np.linalg.norm(proj @ v - v) < 1e-9
    # N = 2: a tuple of degrees (5, 6) grown from (1, 1) by exact mutations
    # in directions 1 then 2 spans the space build_space constructs
    zs = (0, 1, -1, 2)
    one = Poly.one(QQ)
    t = FertileTuple(QQ, (one, one), (one, Poly.from_roots(QQ, zs), one), zs)
    for direction in (1, 2):
        t, _, _ = mutate(t, direction)
    assert [y.degree() for y in t.y] == [5, 6]
    data = MasterData(QQ, (5, 6), tuple((z, (1, 0)) for z in zs))
    Q = induced_space([y.to_ring(CC) for y in t.y], data)
    assert Q.shape[1] == 3
    proj = Q @ Q.conj().T
    for u in build_space(t).basis:
        v = np.array([complex(u.coeff(k)) for k in range(len(Q))])
        assert np.linalg.norm(proj @ v - v) < 1e-9 * np.linalg.norm(v)


def test_solve_critical_leaves_the_count_to_its_caller():
    # an undercount (one multistart start, target 2) and an overcount (F3)
    # raise no warning: the count meets the intersection number only in
    # run_verify's verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = solve_critical(WEIGHT_TWO, starts=1, seed=0)
        over = solve_critical(rou4_data(), starts=200, seed=0)
    assert sum(o.multiplicity for o in short) == 1
    assert sum(o.multiplicity for o in over) > 3
    assert all(type(o.multiplicity) is int for o in short + over)


# -- simple orbits read off the Hessian of log Phi ---------------------------------

def rou3_data(b=Fraction(1, 2), c=Fraction(-2)):
    # z_s = b + c w^s over Q(w): the cube roots moved, one double point at t = b
    return MasterData(OMEGA, (1,), tuple((b + c * OMEGA.gen ** s, (1,)) for s in range(3)))


def _hessian_sigma_at(data, point):
    # smallest singular value of the scaled Hessian of log Phi at one point
    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    return float(bethe._hessian_sigma(np.array([bethe._flat(point)], dtype=complex),
                                      C, zs, W)[0])


@pytest.mark.parametrize("data", [
    *[sl2_ladder_data(n, k) for n, k in SL2_LADDER[:7]],
    *[MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in ladder_points(n))) for n in (4, 5, 6)],
    cuberoots_data(),
    rou3_data(),
    SL2_W2_L2,
    MasterData(OMEGA, (1,), tuple((z, (2,)) for z, _ in cuberoots_data().points)),
], ids=[f"sl2-n{n}-k{k}" for n, k in SL2_LADDER[:7]]
    + ["sl3-n4-l21", "sl3-n5-l21", "sl3-n6-l21", "cuberoots", "rou3", "weight-two",
       "cuberoots-weight-two"])
def test_hessian_verdict_agrees_with_macaulay(data):
    # the Macaulay climb stays the cross-check of the Hessian: an orbit is
    # simple by the one exactly when the other reads multiplicity 1.  The
    # Bethe route merges the cube roots' double point from two eigen-points;
    # with weight 2 the multistart reaches it as one cluster of samples,
    # and only the Hessian sends it to the climb.  At real marked points the
    # solver reads neither (MTV: every orbit is simple), and Macaulay
    # cross-checks that multiplicity 1 too
    system = clear_denominators(data).map_coeffs(CC.coerce)
    orbits = solve_critical(data, starts=200, seed=0)
    assert orbits
    for o in orbits:
        macaulay = local_multiplicity(system, tuple(bethe._flat(o.point))).multiplicity
        assert (_hessian_sigma_at(data, o.point) > _MULT_TOL) == (macaulay == 1)
        assert o.multiplicity == macaulay


def test_simple_orbits_build_no_cleared_system(monkeypatch):
    # at the non-real points 0, 1, -1, 2, i, 1 + i, -1 + 2i every orbit of
    # l = (3,) has a nonsingular Hessian, so neither the cleared system nor
    # the climb is needed; the cube roots' double point still climbs
    def refuse(data):
        raise AssertionError("cleared system built for simple orbits")

    monkeypatch.setattr(bethe, "clear_denominators", refuse)
    field = make_extension("x^2+1")
    i = field.gen
    points = [field.coerce(z) for z in (0, 1, -1, 2)] + [i, 1 + i, 2 * i - 1]
    data = MasterData(field, (3,), tuple((z, (1,)) for z in points))
    assert not gaudin.real_sites(data)
    orbits = solve_critical(data, starts=200, seed=0)
    assert len(orbits) == 14 and all(o.multiplicity == 1 for o in orbits)

    built, climbs = [], []
    monkeypatch.setattr(bethe, "clear_denominators",
                        lambda data: built.append(data) or clear_denominators(data))
    monkeypatch.setattr(bethe, "local_multiplicity",
                        lambda *a, **k: climbs.append(a) or local_multiplicity(*a, **k))
    (orbit,) = solve_critical(cuberoots_data(), starts=200, seed=0)
    assert orbit.multiplicity == 2 and len(built) == 1 and len(climbs) == 1


@pytest.mark.parametrize("data,t", [(rou4_data(), 1), (cuberoots_data(), 0)],
                         ids=["rou4-t1", "cuberoots-t0"])
def test_scaled_hessian_is_singular_at_exact_degenerate_points(data, t):
    # it vanishes at the point and stays far below _MULT_TOL 1e-9 away, where
    # a row scaled by its own largest entry would read 1 (one coordinate);
    # at the ladder orbits it is above _MULT_TOL (the cross-check above)
    assert _hessian_sigma_at(data, ((complex(t),),)) < 1e-12
    assert _hessian_sigma_at(data, ((complex(t) + 1e-9,),)) < _MULT_TOL
