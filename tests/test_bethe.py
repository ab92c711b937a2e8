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

import numpy as np
import pytest

from wroncrit import bethe
from wroncrit.bethe import (
    MasterData,
    _coupling_matrix,
    _critical_equations,
    _embedded_weights,
    SectorSpec,
    bethe_residual,
    certify_critical,
    certify_divisibility,
    check_admissible,
    clear_denominators,
    component_multiplicity,
    gamma,
    induced_space,
    master_from_sector,
    master_value,
    sector_lengths,
    sectors_of,
    solve_critical,
    translate_master,
)
from wroncrit.cli import run_verify
from wroncrit.errors import (
    DimensionMismatch,
    DuplicatePoints,
    EmptySector,
    Inadmissible,
    NoCriticalPoints,
    NotCertified,
    NotIsolated,
)
from wroncrit.field import CC, QQ, embed_scalar, make_extension
from wroncrit.multiplicity import MPoly, MultivariateSystem
from wroncrit.polyring import parse_poly
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
    cert = certify_critical(data, [[R3 + 0j]], tol=1e-9)
    assert cert.mode == "numeric" and cert.residuals[0] < 1e-9
    with pytest.raises(NotCertified):
        certify_critical(data, [[0.25 + 0j]], tol=1e-9)


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
    cert = certify_divisibility([y], rational_data(), tol=1e-9)
    assert cert.mode == "numeric" and cert.residuals[0] < 1e-9
    with pytest.raises(NotCertified):
        certify_divisibility([parse_poly("x", QQ).to_ring(CC)], rational_data())


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
        sector_lengths((3, 2, 1), (1, 2, 3), basic.K[:-1])
    with pytest.raises(DimensionMismatch):
        SectorSpec((1, 2, 3), (1, 2, 3))     # labels must decrease
    with pytest.raises(DimensionMismatch):
        SectorSpec((3, 2, 1), (1, 1, 2))
    # a steep divisor ladder leaves no room for the small labels first
    one = parse_poly("1", QQ)
    ladder = (one, one, parse_poly("x^3", QQ), parse_poly("x^3", QQ))
    assert sector_lengths((3, 2, 1), (1, 2, 3), ladder) == (3, 1)
    with pytest.raises(EmptySector):
        sector_lengths((3, 2, 1), (3, 2, 1), ladder)


def test_no_critical_points():
    # l = (1,), one simple weight: labels come out (1, 1) and collide
    data = MasterData(QQ, (1,), ((0, (1,)),))
    with pytest.raises(NoCriticalPoints):
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
# critical orbit is simple and its tuple y has real coefficients
SL2_LADDER = [(4, 2), (5, 2), (6, 2), (6, 3)]


def sl2_ladder_orbits(n, k):
    data = MasterData(QQ, (k,), tuple((z, (1,)) for z in (0, 1, -1, 2, -2, 3)[:n]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_critical(data, starts=200, seed=0)


@pytest.mark.parametrize("n,k", SL2_LADDER[:3] + [pytest.param(
    6, 3, marks=pytest.mark.xfail(strict=True, reason="200 multistart starts find "
                                  "4 of the 5 orbits; 1000 starts find all 5"))])
def test_sl2_ladder_count_is_closed_form(n, k):
    orbits = sl2_ladder_orbits(n, k)
    assert sum(o.multiplicity for o in orbits) == math.comb(n, k) - math.comb(n, k - 1)


@pytest.mark.parametrize("n,k", SL2_LADDER)
def test_sl2_ladder_orbits_simple_and_real(n, k):
    for o in sl2_ladder_orbits(n, k):
        assert o.isolated and o.multiplicity == 1
        coeffs = [complex(c) for y in o.tuple_y for c in y.coeffs]
        assert max(abs(c.imag) for c in coeffs) <= 1e-7 * max(1.0, *(abs(c) for c in coeffs))


def rou4_data():
    # z_s = 1 + i^s over Q(i), l = (1,), weight 1
    field = make_extension("x^2+1")
    return MasterData(field, (1,), tuple((1 + field.gen ** s, (1,)) for s in range(4)))


def test_roots_of_unity_identity_sector_within_target():
    # under --sector all the identity sector l = (4,) must not sum past the
    # intersection number 3.  A sample whose tuple generates the space of the
    # sector's 1-dimensional component lies on it: it is not an isolated
    # orbit of multiplicity 6
    report = run_verify(rou4_data(), sector="all", starts=200, seed=0)["report"]
    ident = report["sectors"]["1,2"]
    assert ident["l"] == [4] and report["lr_target"] == 3
    assert not [o for o in ident["orbits"] if o["isolated"]]
    assert len([o for o in ident["orbits"] if not o["isolated"]]) == 1
    assert ident["multiplicity_sum"] <= report["lr_target"]


def test_component_samples_skip_the_dual_climb(monkeypatch):
    # on the rou4 identity sector the dual-space climb learns that a sample is
    # not isolated once per component; later samples of the component are
    # placed by their induced space
    basic, _ = translate_master(rou4_data())
    ident = master_from_sector(basic, (1, 2))
    n = ident.size()
    not_isolated = []
    local_multiplicity = bethe.local_multiplicity

    def counted(system, point, **kw):
        try:
            return local_multiplicity(system, point, **kw)
        except NotIsolated:
            if len(system.polys) == n:  # not a slice of component_multiplicity
                not_isolated.append(point)
            raise

    monkeypatch.setattr(bethe, "local_multiplicity", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orbits = solve_critical(ident, starts=200, seed=0)
    components = [o for o in orbits if not o.isolated]
    assert components and len(not_isolated) == len(components)
    assert sum(o.hits for o in components) > len(components)


def _newton_full_batch(pts, C, zs, W, rng, radius, far_cut):
    # every start steps every time: the loop _newton must reproduce bitwise
    L = pts.shape[1]
    for _ in range(bethe._MAX_GN_ITER):
        F, J, _ = _critical_equations(pts, C, zs, W)
        ok = np.isfinite(F).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
        step = np.zeros_like(pts)
        step[ok] = -(np.linalg.pinv(J[ok]) @ F[ok][:, :, None])[:, :, 0]
        step[~np.isfinite(step).all(axis=1)] = 0.0
        pts = pts + step
        bad = ~np.isfinite(pts).all(axis=1) | (np.abs(pts).max(axis=1) > far_cut)
        for s in np.nonzero(bad)[0]:
            pts[s] = bethe._rand_point(rng, L, radius)
    return pts


SL3_L21 = MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2)))
# sl2 l = (3,) at 0, +-1, +-2, 3: many starts run onto collisions
SL2_L3 = MasterData(QQ, (3,), tuple((z, (1,)) for z in (0, 1, -1, 2, -2, 3)))


def _newton_setup(data, far_factor=bethe._FAR_FACTOR):
    C = _coupling_matrix(data.l)
    zs, W = _embedded_weights(data)
    radius = 2.0 * (np.abs(zs).max() + 1.0)
    return C, zs, W, radius, far_factor * radius


@pytest.mark.parametrize("data,far_factor", [
    pytest.param(MasterData(QQ, (2,), tuple((z, (1,)) for z in (0, 1, -1, 2))),
                 bethe._FAR_FACTOR, id="sl2-l2"),
    pytest.param(SL3_L21, bethe._FAR_FACTOR, id="sl3-l21"),
    pytest.param(cuberoots_data(), bethe._FAR_FACTOR, id="rou3"),
    pytest.param(SL2_L3, bethe._FAR_FACTOR, id="sl2-l3"),
    # no start of the cases above is ever redrawn; with the far cut at twice
    # the start radius some are
    pytest.param(SL3_L21, 2.0, id="sl3-l21-redrawn"),
])
def test_newton_matches_full_batch_loop(data, far_factor, monkeypatch):
    # a start retired near a collision ends elsewhere than in the full loop,
    # but the filter rejects it in both; every accepted sample and every draw
    # from rng is the full loop's, bit for bit
    C, zs, W, radius, far_cut = _newton_setup(data, far_factor)
    L, starts = data.size(), 200
    outs, masks, states = [], [], []
    for newton in (_newton_full_batch, bethe._newton):
        rng = np.random.default_rng(0)
        pts = np.array([bethe._rand_point(rng, L, radius) for _ in range(starts)])
        drawn = rng.bit_generator.state
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = newton(pts, C, zs, W, rng, radius, far_cut)
            masks.append(bethe._accepted(out, C, zs, W, far_cut)[0])
        outs.append(out.view(np.uint64))
        states.append(rng.bit_generator.state)
    assert np.array_equal(masks[0], masks[1]) and masks[0].any()
    assert np.array_equal(outs[0][masks[0]], outs[1][masks[1]])
    assert states[0] == states[1]
    assert far_factor == bethe._FAR_FACTOR or states[0] != drawn
    differ = (outs[0] != outs[1]).any(axis=1)
    assert not (differ & (masks[0] | masks[1])).any()
    # and the frozen starts were really left out
    rows = []
    equations = bethe._critical_equations
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    rng = np.random.default_rng(0)
    pts = np.array([bethe._rand_point(rng, L, radius) for _ in range(starts)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bethe._newton(pts, C, zs, W, rng, radius, far_cut)
    assert sum(rows) < starts * bethe._MAX_GN_ITER


@pytest.mark.parametrize("data", [SL2_L3, cuberoots_data()], ids=["sl2-l3", "rou3"])
def test_solver_matches_full_batch_loop(data, monkeypatch):
    # retiring starts near collisions changes no orbit the solver reports
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
    C, zs, W, radius, far_cut = _newton_setup(SL2_L3)
    start = np.array([[1e-8, 2e-8, 0.4 + 0.3j]])
    rows = []
    equations = bethe._critical_equations
    monkeypatch.setattr(bethe, "_critical_equations",
                        lambda t, *a: rows.append(len(t)) or equations(t, *a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = bethe._newton(start.copy(), C, zs, W, np.random.default_rng(0), radius, far_cut)
        assert rows == [1]
        assert bethe._near_collision(start, C, zs, W).all()
        assert not bethe._accepted(out, C, zs, W, far_cut)[0].any()


def test_cleared_system_embedded_once(monkeypatch):
    # solve_critical embeds the cleared system in CC once; local_multiplicity
    # then converts only the coordinates of each point it tests
    import wroncrit.multiplicity as mult

    seen = []
    to_numeric = mult._to_numeric
    monkeypatch.setattr(mult, "_to_numeric", lambda v: seen.append(v) or to_numeric(v))
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
