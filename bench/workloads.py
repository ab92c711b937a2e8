"""Workload inputs made from a seed, one operation each, and its checks.

A workload is a list of cases.  ``setup`` makes the cases from the seed and
loads them into the program's own types; ``run`` performs one operation on a
loaded case and returns the program's output; ``check`` compares that output
with oracles from ``oracles`` and returns the names of the checks it broke.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracles import (
    Quad,
    bethe_residuals,
    distinct_orders,
    master_target,
    padd,
    pderiv,
    pdivmod,
    peq,
    pgcd,
    pmonic,
    pmul,
    ppow,
    pscale,
    psub,
    root_of_unity,
    same_tuple,
    separation,
    sl2_count,
    taylor,
    tuple_key,
    wronskian,
)

STARTS = 200
# sl2 ladder (n, k), weight 1 at every point, l = (k,)
SL2_LADDER = ((4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4), (10, 5))
# sl3 l = (2, 1) with weights (1, 0), at n points
SL3_SIZES = (4, 5, 6)

RESIDUAL_REL = 1e-9    # |gradient component| / sum of |its terms|
MARGIN_REL = 1e-6      # admissibility: separation / (1 + largest coordinate)
TUPLE_REL = 1e-6       # two tuples y agree within this, relative
REAL_REL = 1e-7        # imaginary parts of y at real points, relative
ROU_REL = 1e-3         # location of the roots-of-unity orbit, relative to 1 + |b|

# ---------------------------------------------------------------------------
# run_verify inputs (generic and degenerate)


@dataclass
class VerifyCase:
    """One ``run_verify`` call and what the oracles know about its answer."""

    name: str
    problem: dict              # contents of the problem file
    sector: str
    target: int                # intersection number, from the oracles
    zs: list                   # marked points under the generator's embedding
    weights: list              # weight column of every point (every sector here)
    real: bool                 # all marked points real: MTV applies
    rou: tuple | None = None   # (n, b): one orbit at t = b of multiplicity n - 1
    loaded: object = field(default=None, repr=False)


def ladder_points(n: int) -> list[int]:
    """0, 1, -1, 2, -2, ...: the first n integers by distance from 0."""
    return [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(n)]


def _master_file(l, points, weights, minpoly=None) -> dict:
    fld = {"type": "rational"} if minpoly is None else {"type": "extension", "minpoly": minpoly}
    return {"kind": "master", "l": list(l), "field": fld,
            "points": [{"z": z, "m": list(m)} for z, m in zip(points, weights)]}


def _rational_case(name, l, zs, weights, target) -> VerifyCase:
    return VerifyCase(name, _master_file(l, [str(z) for z in zs], weights), "own", target,
                      [complex(z) for z in zs], list(weights), True)


def generic_cases(seed: int) -> list[VerifyCase]:
    """The ladder at the points 0, +-1, +-2, ..., and the F2 configuration.

    The points do not depend on the seed: on seed-drawn integer points the
    solver's faults come and go from draw to draw, and the failure share of a
    run must not depend on its seed.
    """
    del seed
    cases = []
    for n, k in SL2_LADDER:
        cases.append(_rational_case(f"sl2-n{n}-k{k}", (k,), ladder_points(n),
                                    [(1,)] * n, sl2_count(n, k)))
    for n in SL3_SIZES:
        w = [(1, 0)] * n
        cases.append(_rational_case(f"sl3-n{n}-l21", (2, 1), ladder_points(n), w,
                                    master_target((2, 1), w)))
    zs = (-2, -8, 0, 8)
    cases.append(_rational_case("sl2-n4-k2-F2", (2,), zs, [(1,)] * 4, sl2_count(4, 2)))
    return cases


# quadratic fields by minimal polynomial x^2 - p x - q, and the complex value
# of the generator: the root with the largest imaginary part, then real part
FIELDS = {
    "x^2+x+1": (-1, -1, root_of_unity(3)),
    "x^2+1": (0, -1, 1j),
    "x^2-3": (0, 3, 3 ** 0.5),
}


def _quad(minpoly, a, b=0) -> Quad:
    p, q, _ = FIELDS[minpoly]
    return Quad(a, b, p, q)


def _embed(minpoly, v: Quad) -> complex:
    return complex(v.a) + complex(v.b) * FIELDS[minpoly][2]


def _fmt_quad(v: Quad) -> str:
    return f"({v.a})+({v.b})*a"


def _rou_case(n: int, b: Fraction, c: Fraction, sector: str, tag: str) -> VerifyCase:
    # z_s = b + c zeta_n^s over Q(zeta_n); T = (x - b)^n - c^n, so the only
    # critical point of l = (1,) is t = b, of multiplicity n - 1
    minpoly = {3: "x^2+x+1", 4: "x^2+1"}[n]
    zeta = _quad(minpoly, 0, 1)
    pts, power = [], _quad(minpoly, 1)
    for _ in range(n):
        pts.append(_quad(minpoly, b) + power * c)
        power = power * zeta
    return VerifyCase(f"rou{n}-{tag}-{sector}",
                      _master_file((1,), [_fmt_quad(z) for z in pts], [(1,)] * n, minpoly),
                      sector, sl2_count(n, 1), [_embed(minpoly, z) for z in pts],
                      [(1,)] * n, False, rou=(n, complex(b)))


def _small_rational(rng: random.Random) -> Fraction:
    while True:
        v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if v:
            return v


# the problem files shipped with the package, under --sector all
_OMEGA = root_of_unity(3)
SHIPPED = (
    ("example_cuberoots",
     {"kind": "basic", "d": 3, "N": 1, "field": {"type": "extension", "minpoly": "x^2+x+1"},
      "points": [{"z": "1", "ram": [1, 0]}, {"z": "a", "ram": [1, 0]},
                 {"z": "-1-a", "ram": [1, 0]}],
      "infinity": {"ram": [1, 0]}},
     [1, _OMEGA, _OMEGA ** 2], False),
    ("example_cuberoots_master",
     _master_file((1,), ["1", "a", "-1-a"], [(1,)] * 3, "x^2+x+1"),
     [1, _OMEGA, _OMEGA ** 2], False),
    ("variant_rational", _master_file((1,), ["0", "1", "-1"], [(1,)] * 3), [0, 1, -1], True),
)


def degenerate_cases(seed: int) -> list[VerifyCase]:
    """Shipped problems, and z_s = b + c zeta^s with a double and a triple point.

    The seed draws b and c of the two n = 3 configurations.  The n = 4
    configuration fails on every draw (F3), so its b and c are fixed.
    """
    rng = random.Random(seed)
    cases = []
    for name, prob, zs, real in SHIPPED:
        # ramification (1, 0) at every point: sigma_1 each, weight 1 in every sector
        cases.append(VerifyCase(f"{name}-all", prob, "all", sl2_count(3, 1),
                                [complex(z) for z in zs], [(1,)] * 3, real))
    for j in range(2):
        b, c = _small_rational(rng), _small_rational(rng)
        for sector in ("own", "all"):
            cases.append(_rou_case(3, b, c, sector, f"d{j}"))
    for sector in ("own", "all"):
        cases.append(_rou_case(4, Fraction(1), Fraction(1), sector, "fixed"))
    return cases


def _parse_levels(point) -> list[list[complex]]:
    return [[complex(v) for v in lev] for lev in point]


def check_verify(case: VerifyCase, out: dict, stats: dict) -> list[str]:
    """Broken checks of one run_verify report; counts orbits into ``stats``."""
    report = out["report"]
    broken = []
    if report["lr_target"] != case.target:
        broken.append("lr_target")
    for sec in report["sectors"].values():
        total = sec["multiplicity_sum"]
        want = "MATCH" if total == case.target else (
            "UNDERCOUNT" if total < case.target else "OVERCOUNT")
        if sec["verdict"] != want or total != sum(o["multiplicity"] or 0 for o in sec["orbits"]):
            broken.append("verdict")
        if total > case.target:
            broken.append("count_le_target")
        keys = []
        for o in sec["orbits"]:
            levels = _parse_levels(o["point"])
            stats["reported"] += 1
            bad = []
            res = bethe_residuals(levels, case.zs, case.weights)
            if any(not abs(v) <= RESIDUAL_REL * s for v, s in res):
                bad.append("residual")
            scale = 1.0 + max([abs(t) for lev in levels for t in lev]
                              + [abs(z) for z in case.zs])
            if not separation(levels, case.zs, case.weights) >= MARGIN_REL * scale:
                bad.append("admissibility_margin")
            key = tuple_key(levels)
            if any(same_tuple(key, k, TUPLE_REL) for k in keys):
                bad.append("duplicate_y")
            keys.append(key)
            if case.real and o["isolated"]:
                big = 1.0 + max(abs(v) for v in key)
                if max(abs(v.imag) for v in key) > REAL_REL * big:
                    bad.append("mtv_real")
                if o["multiplicity"] != 1:
                    bad.append("mtv_simple")
            stats["distinct_verified"] += not bad
            broken += bad
        if case.rou and list(sec["l"]) == [1]:
            n, b = case.rou
            orbits = sec["orbits"]
            if (len(orbits) != 1 or orbits[0]["multiplicity"] != n - 1
                    or abs(complex(orbits[0]["point"][0][0]) - b) > ROU_REL * (1 + abs(b))):
                broken.append("roots_of_unity_orbit")
    if case.sector == "all":
        top = report["sectors"].get("1,2", next(iter(report["sectors"].values())))
    else:
        top = next(iter(report["sectors"].values()))
    if report["verdict"] != top["verdict"]:
        broken.append("verdict")
    broken = sorted(set(broken))
    stats["orbits_found"] += 0 if broken else sum(
        s["multiplicity_sum"] for s in report["sectors"].values())
    return broken


class VerifyWorkload:
    """``cli.run_verify`` over problem files written to a work directory."""

    def __init__(self, make_cases, workdir: str):
        self.make_cases = make_cases
        self.workdir = workdir

    def setup(self, seed: int, wc) -> list[VerifyCase]:
        cases = self.make_cases(seed)
        for case in cases:
            path = os.path.join(self.workdir, case.name + ".json")
            with open(path, "w") as fh:
                json.dump(case.problem, fh)
            case.loaded = wc.cli.load_problem(path)
        return cases

    @staticmethod
    def run(case: VerifyCase, wc) -> dict:
        return wc.cli.run_verify(case.loaded, sector=case.sector, starts=STARTS, seed=0)

    @staticmethod
    def check(case: VerifyCase, out, stats: dict) -> list[str]:
        return check_verify(case, out, stats)


# ---------------------------------------------------------------------------
# build_space inputs (QQ and number fields)


@dataclass
class ExactCase:
    """A fertile tuple y_1..y_N with weights T_0..T_N split over marked points."""

    name: str
    minpoly: str | None        # None for QQ
    points: list
    orders: list               # orders[s][j] = ord at points[s] of T_j
    T: list
    y: list
    loaded: object = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return len(self.y)


def _one(minpoly):
    return Fraction(1) if minpoly is None else _quad(minpoly, 1)


def _solve_wronskian(y, rhs, one):
    """Particular g with Wr(y, g) = y'g - yg' = rhs, and the line's direction y.

    Linear algebra on the coefficients of g; the solutions form g + c*y.
    """
    dy = len(y) - 1
    top = max(len(rhs) - dy, dy)  # degree bound for g
    cols = []
    for j in range(top + 1):
        mono = [0 * one] * j + [one]
        cols.append(psub(pmul(pderiv(y), mono), pmul(y, pderiv(mono))))
    nrows = max([len(c) for c in cols] + [len(rhs)])
    mat = [[(cols[j][r] if r < len(cols[j]) else 0 * one) for j in range(top + 1)]
           + [rhs[r] if r < len(rhs) else 0 * one] for r in range(nrows)]
    pivots, row = [], 0
    for col in range(top + 1):
        pr = next((r for r in range(row, nrows) if mat[r][col]), None)
        if pr is None:
            continue
        mat[row], mat[pr] = mat[pr], mat[row]
        inv = one / mat[row][col]
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    if any(mat[r][-1] for r in range(row, nrows)):
        raise ValueError("Wronskian equation not solvable")
    g = [0 * one] * (top + 1)
    for r, col in enumerate(pivots):
        g[col] = mat[r][-1]
    while g and not g[-1]:
        g.pop()
    return g


def _coprime(f, g) -> bool:
    return len(f) <= 1 or len(g) <= 1 or len(pgcd(f, g)) == 1


def _fertile(y, T) -> bool:
    N = len(y)
    for i in range(N):
        lo = y[i - 1] if i > 0 else [1]
        hi = y[i + 1] if i + 1 < N else [1]
        w = psub(pmul(pderiv(pderiv(y[i])), pmul(T[i + 1], pmul(lo, hi))),
                 pmul(pderiv(y[i]), pderiv(pmul(T[i + 1], pmul(lo, hi)))))
        if len(y[i]) > 1 and pdivmod(w, y[i])[1]:
            return False
    return True


def _mutate(y, T, i: int, rng: random.Random, one):
    """Replace y_i by a generic monic solution of Wr(y_i, *) = T_i y_{i-1} y_{i+1}.

    The seed picks the member g + c*y_i of the solution line; members of
    lower degree than the line's generic degree are skipped, so the degrees
    of a grown tuple do not depend on the seed.
    """
    N = len(y)
    lo = y[i - 2] if i >= 2 else [one]
    hi = y[i] if i < N else [one]
    rhs = pmul(T[i], pmul(lo, hi))
    g = _solve_wronskian(y[i - 1], rhs, one)
    degree = _next_degree(len(y[i - 1]) - 1, len(rhs) - 1)
    avoid = [t for t in T if len(t) > 1] + [p for p in (lo, hi) if len(p) > 1]
    for c in [rng.choice((-1, 1)) for _ in range(8)] + list(range(2, 40)):
        cand = padd(g, pscale(y[i - 1], one * c))
        if len(cand) - 1 != degree:
            continue
        cand = pmonic(cand)
        if _coprime(cand, pderiv(cand)) and all(_coprime(cand, t) for t in avoid):
            out = list(y)
            out[i - 1] = cand
            return out
    raise ValueError("no generic member on the solution line")


def _next_degree(dy: int, drhs: int) -> int:
    # Wr(y, g) has degree dy + deg g - 1 unless deg g = dy
    return max(drhs + 1 - dy, dy)


@dataclass(frozen=True)
class Shape:
    """What fixes the degrees of a grown tuple: N, weights and directions."""

    N: int
    orders: tuple              # orders[s][j] = ord at point s of T_j
    directions: tuple


def _shape(N: int, npts: int, cap: int, label: str) -> Shape:
    """A shape drawn once from its label: the same for every seed."""
    rng = random.Random(label)
    orders = []
    for _ in range(npts):
        while True:
            m = tuple(rng.randint(0, 1) for _ in range(N + 1))
            if any(m):
                orders.append(m)
                break
    degT = [sum(m[j] for m in orders) for j in range(N + 1)]
    deg = [0] * (N + 2)  # deg y_0 .. deg y_{N+1}
    directions = []
    for _ in range(8 * N):
        i = rng.randint(1, N)
        d = _next_degree(deg[i], degT[i] + deg[i - 1] + deg[i + 1])
        if d <= cap:
            deg[i] = d
            directions.append(i)
    return Shape(N, tuple(orders), tuple(directions))


def _grow(name, minpoly, shape: Shape, rng: random.Random) -> ExactCase:
    one = _one(minpoly)
    npts = len(shape.orders)
    if minpoly is None:
        points = [Fraction(v) for v in rng.sample(range(-3, 4), npts)]
    else:
        pairs = rng.sample([(a, b) for a in (-1, 1) for b in (-1, 1)], npts)
        points = [_quad(minpoly, a, b) for a, b in pairs]
    T = []
    for j in range(shape.N + 1):
        t = [one]
        for z, m in zip(points, shape.orders):
            t = pmul(t, ppow([-z, one], m[j]))
        T.append(t)
    y = [[one] for _ in range(shape.N)]
    for i in shape.directions:
        y = _mutate(y, T, i, rng, one)
    if not _fertile(y, T):
        raise ValueError(f"{name}: grown tuple is not fertile")
    return ExactCase(name, minpoly, points, [list(m) for m in shape.orders], T, y)


# (N, number of marked points, degree cap) of the tuples of one pass
QQ_SHAPES = ((1, 2, 8), (1, 3, 8), (2, 2, 7), (2, 3, 7), (3, 2, 5), (3, 3, 5))
NF_SHAPES = ((1, 2, 6), (1, 3, 6), (2, 2, 4), (2, 3, 4), (3, 2, 3))


def exact_cases(seed: int) -> list[ExactCase]:
    """Tuples over QQ; the seed draws the points and every line constant."""
    rng = random.Random(seed)
    return [_grow(f"qq-N{N}-p{p}-{r}", None, _shape(N, p, cap, f"qq{N}{p}{r}"), rng)
            for r in range(2) for N, p, cap in QQ_SHAPES]


def numberfield_cases(seed: int) -> list[ExactCase]:
    """Tuples over Q(omega) and Q(sqrt 3), marked points a + b*gen."""
    rng = random.Random(seed)
    return [_grow(f"{tag}-N{N}-p{p}", mp, _shape(N, p, cap, f"{tag}{N}{p}"), rng)
            for mp, tag in (("x^2+x+1", "omega"), ("x^2-3", "sqrt3"))
            for N, p, cap in NF_SHAPES]


def _kappa_times(w, target):
    """kappa with w == kappa * target, or None."""
    if len(w) != len(target) or not w:
        return None
    kappa = w[-1] / target[-1]
    return kappa if peq(w, pscale(target, kappa)) else None


def check_exact(case: ExactCase, out, stats: dict, scalar) -> list[str]:
    """Broken checks of one build_space + theta; ``scalar`` reads program scalars."""
    def own(p):
        return [scalar(c) for c in p.coeffs]

    space, back = out
    N = case.N
    basis = [own(u) for u in space.basis]
    broken = []
    if len(basis) != N + 1:
        return ["basis_size"]
    one = _one(case.minpoly)
    ys = [[one]] + case.y + [[one]]
    # Wr(u_1..u_i) = kappa_i K_i y_i, K_i = T_0^i T_1^(i-1) ... T_(i-1)
    for i in range(1, N + 2):
        K = [one]
        for j in range(i):
            K = pmul(K, ppow(case.T[j], i - j))
        w = wronskian(basis[:i])
        kappa = _kappa_times(w, pmul(K, ys[i]))
        if kappa is None or not kappa or not peq(own(space.wronskians[i - 1]), w):
            broken.append("wronskian_identity")
            break
    # closed-form exponent tables, against the basis and against the report
    fin = {}
    for z, m in zip(case.points, case.orders):
        fin[z] = tuple(i - 1 + sum(m[:i]) for i in range(1, N + 2))
    c = [i - 1 + (len(ys[i]) - 1) - (len(ys[i - 1]) - 1)
         + sum(len(case.T[j]) - 1 for j in range(i)) for i in range(1, N + 2)]
    try:
        for i in range(1, N + 2):
            for z, table in fin.items():
                if distinct_orders([taylor(u, z) for u in basis[:i]], True) != table[:i]:
                    broken.append("finite_exponents")
            if distinct_orders(basis[:i], False) != tuple(sorted(c[:i])):
                broken.append("infinity_exponents")
    except ValueError:
        broken.append("basis_dependent")
    reported = {scalar(z): tuple(e) for z, e in space.finite_exponents}
    if set(reported) != set(fin) or any(reported[z] != fin[z] for z in fin):
        broken.append("finite_exponents")
    if tuple(space.infinity_exponents) != tuple(c):
        broken.append("infinity_exponents")
    if len(back) != N or any(not peq(own(p), y) for p, y in zip(back, case.y)):
        broken.append("theta_round_trip")
    broken = sorted(set(broken))
    if not broken:
        stats["orbits_found"] += 1
    return broken


class ExactWorkload:
    """``reproduction.build_space`` then ``reproduction.theta`` on grown tuples."""

    def __init__(self, make_cases):
        self.make_cases = make_cases

    def setup(self, seed: int, wc) -> list[ExactCase]:
        cases = self.make_cases(seed)
        for case in cases:
            ring = wc.QQ if case.minpoly is None else wc.make_extension(case.minpoly)
            conv = self._to_program(ring, case.minpoly is None, wc)
            case.loaded = wc.FertileTuple(
                ring, tuple(wc.Poly(ring, [conv(v) for v in p]) for p in case.y),
                tuple(wc.Poly(ring, [conv(v) for v in p]) for p in case.T),
                tuple(conv(z) for z in case.points))
        return cases

    @staticmethod
    def _to_program(ring, rational: bool, wc):
        if rational:
            return lambda v: Fraction(v)
        return lambda v: wc.ExtElem(ring, [v.a, v.b]) if isinstance(v, Quad) \
            else wc.ExtElem(ring, [Fraction(v)])

    @staticmethod
    def run(case: ExactCase, wc):
        space = wc.reproduction.build_space(case.loaded)
        return space, wc.reproduction.theta(space)

    @staticmethod
    def check(case: ExactCase, out, stats: dict) -> list[str]:
        if case.minpoly is None:
            return check_exact(case, out, stats, Fraction)
        return check_exact(case, out, stats, lambda c: _quad(case.minpoly, *c.coeffs))
