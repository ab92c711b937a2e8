"""Command-line front end: problem files in, tables or JSON out.

Problem files are JSON with exact scalars as strings.  Two kinds:

  basic situation   {"kind": "basic", "d": 3, "N": 1, "field": {...},
                     "points": [{"z": "1", "ram": [1, 0]}, ...],
                     "infinity": {"ram": [1, 0]}}
  master data       {"kind": "master", "l": [1], "field": {...},
                     "points": [{"z": "1", "m": [1]}, ...]}

The "kind" key is optional; presence of "l" marks master data.  The field
object is {"type": "rational"} (the default) or {"type": "extension",
"minpoly": "x^2+x+1"}; the --field flag overrides it.

Exit codes: 0 success/MATCH, 1 domain failure, 2 parse failure, 3 bad
dimensions or ramification data, 4 verified undercount, 5 overcount, 64
usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import gaudin
from .bethe import (
    MasterData,
    build_sector,
    certify_divisibility,
    check_admissible,
    clear_denominators,
    master_from_sector,
    point_sector,
    sectors_of,
    solve_critical,
    translate_master,
)
from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    EmptySector,
    MixedFields,
    NegativeLength,
    NoCriticalPoints,
    NotIrreducible,
    NotMonic,
    NotRealizable,
    NotSolvable,
    ParseError,
    WroncritError,
)
from .field import QQ, format_scalar, make_extension, parse_scalar
from .multiplicity import local_multiplicity
from .polyring import format_poly, parse_poly
from .ramification import BasicSituation, fmt_exps, validate_basic, wronskian_ram_check
from .reproduction import FertileTuple, build_space, is_fertile, mutate, theta
from .schubert import intersection_number
from .wronskian_eq import generic_candidate, solve

_USAGE_EXIT = 64
_PARSE_EXIT = 2
_DATA_EXIT = 3
_UNDER_EXIT = 4
_OVER_EXIT = 5

_DATA_ERRORS = (DimensionMismatch, NotRealizable, NegativeLength, DuplicatePoints,
                NotMonic, NotIrreducible, MixedFields)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the interface contract says 64
    def error(self, message):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# problem files

def _field_from_spec(spec) -> object:
    if spec is None:
        return QQ
    if isinstance(spec, str):
        if spec == "rational":
            return QQ
        if spec.startswith("extension:"):
            return make_extension(spec.split(":", 1)[1])
        raise ParseError(f"bad field spec {spec!r}; want rational or extension:<minpoly>")
    if not isinstance(spec, dict):
        raise ParseError(f"bad field {spec!r}; want a string or an object")
    if spec.get("type") == "rational":
        return QQ
    if spec.get("type") == "extension":
        return make_extension(spec["minpoly"])
    raise ParseError(f"bad field object {spec!r}")


def load_problem(path: str, field_flag: str | None = None):
    """Parse a problem file into a BasicSituation or MasterData."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    try:
        ring = _field_from_spec(field_flag if field_flag else raw.get("field"))
        kind = raw.get("kind", "master" if "l" in raw else "basic")
        if kind == "master":
            pts = tuple((parse_scalar(str(p["z"]), ring), tuple(p["m"]))
                        for p in raw["points"])
            return MasterData(ring, tuple(raw["l"]), pts)
        if kind == "basic":
            pts = tuple((parse_scalar(str(p["z"]), ring), tuple(p["ram"]))
                        for p in raw["points"])
            return validate_basic(ring, raw["d"], raw["N"], pts, tuple(raw["infinity"]["ram"]))
        raise ParseError(f"{path}: unknown kind {kind!r}")
    except KeyError as e:
        raise ParseError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed problem: {e}") from e


def _problem_echo(problem) -> dict:
    if isinstance(problem, MasterData):
        return {
            "kind": "master",
            "N": problem.N,
            "l": list(problem.l),
            "points": [{"z": format_scalar(z), "m": list(m)} for z, m in problem.points],
        }
    return {
        "kind": "basic",
        "d": problem.d,
        "N": problem.N,
        "points": [{"z": format_scalar(z), "ram": list(a)} for z, a in problem.points],
        "infinity": {"ram": list(problem.infinity)},
    }


def _basic_of(problem) -> BasicSituation:
    # a master-data problem stands for the basic situation it translates to
    return problem if isinstance(problem, BasicSituation) else translate_master(problem)[0]


def _master_of(problem) -> MasterData:
    # a basic situation stands for the master data of its identity sector
    if isinstance(problem, MasterData):
        return problem
    return master_from_sector(problem, tuple(range(1, problem.N + 2)))


def _parse_point(text: str, ring) -> tuple:
    # levels split by ';', coordinates by ','; '.'/'j' marks a floating value
    levels = []
    for part in text.split(";"):
        coords = []
        for tok in part.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if any(ch in tok for ch in ".jJ") or "e" in tok.lower().lstrip("e"):
                try:
                    coords.append(complex(tok))
                except ValueError:
                    raise ParseError(f"bad floating coordinate {tok!r}") from None
            else:
                coords.append(parse_scalar(tok, ring))
        levels.append(tuple(coords))
    return tuple(levels)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
    basic = _basic_of(load_problem(args.problem, args.field))
    rows = {
        "d": basic.d,
        "N": basic.N,
        "K": [format_poly(k) for k in basic.K],
        "T": [format_poly(t) for t in basic.T],
        "lengths": list(basic.lengths),
    }
    lines = [f"valid basic situation: d = {basic.d}, N = {basic.N}"]
    for i, k in enumerate(basic.K):
        lines.append(f"  K_{i} = {format_poly(k)}")
    for i, t in enumerate(basic.T):
        lines.append(f"  T_{i} = {format_poly(t)}")
    lines.append("  lengths " + ", ".join(f"l_{i + 1} = {v}" for i, v in enumerate(basic.lengths)))
    _emit(args, rows, "\n".join(lines))
    return 0


def _cmd_lr(args) -> int:
    basic = _basic_of(load_problem(args.problem, args.field))
    n = intersection_number(basic)
    _emit(args, {"intersection_number": n}, f"intersection number: {n}")
    return 0


def _select_sectors(problem, flag: str):
    """Resolve --sector into the basic situation and (label, w, MasterData) picks."""
    if flag == "own" and isinstance(problem, MasterData):
        basic, sector = translate_master(problem)
        return basic, [("own", sector.w, problem)]
    basic = _basic_of(problem)
    if flag == "all":
        ws = [spec.w for spec in sectors_of(basic)]
    elif flag in ("own", "identity"):
        ws = [tuple(range(1, basic.N + 2))]
    else:
        try:
            ws = [tuple(int(v) for v in flag.split(","))]
        except ValueError:
            raise ParseError(f"bad sector {flag!r}; want identity, all, own or a permutation")
    return basic, [(",".join(map(str, w)), w, master_from_sector(basic, w)) for w in ws]


def _fmt_point(point) -> list:
    return [[format_scalar(v) for v in lev] for lev in point]


def _orbit_rows(orbits, data) -> list[dict]:
    rows = []
    for o in orbits:
        try:
            certify_divisibility(o.tuple_y, data)
            cert = "certified"
        except WroncritError as e:
            cert = f"UNCERTIFIED: {e}"
        rows.append({
            "point": _fmt_point(o.point),
            "residual": f"{o.residual:.3e}",
            "multiplicity": o.multiplicity,
            "isolated": o.isolated,
            "dimension": o.dimension,
            "hits": o.hits,
            "tuple": [format_poly(y) for y in o.tuple_y],
            "certified": cert,
        })
    return rows


def _solve_sectors(problem, basic: BasicSituation, picks, starts: int, seed: int) -> list[tuple]:
    """(label, data, orbit rows) per picked sector, solved or built, and certified.

    Only the point sector is solved, once; every other sector is built from
    its orbits.  Both read the basic situation of the sectors' data: a
    master-data problem's is ``basic``, translated once (_select_sectors); a
    basic situation read from a file may have base points, which the spaces
    of its orbits do not, so the point sector's data is translated once
    instead.  Each orbit is certified by divisibility at the fixed tolerance
    of certify_divisibility (1e-9, relative to the dividend's norm).  The
    counts are not judged here: run_verify compares them with the
    intersection number.
    """
    point = point_sector(basic.N)
    point_data = next((data for _, w, data in picks if w == point), None)
    try:
        point_data = point_data or master_from_sector(basic, point)
        if not isinstance(problem, MasterData):
            basic = translate_master(point_data)[0]
    except (EmptySector, NoCriticalPoints):  # no sector has critical points
        return [(label, data, []) for label, _, data in picks]
    orbits = solve_critical(point_data, starts=starts, seed=seed, basic=basic)
    out = []
    for label, w, data in picks:
        built = orbits if w == point else build_sector(data, basic, orbits, seed)
        out.append((label, data, _orbit_rows(built, data)))
    return out


def _orbit_line(r: dict) -> str:
    dim = "" if r["isolated"] else f"  dim {r['dimension']}"
    return (f"  point {r['point']}  mult {r['multiplicity']}"
            f"  res {r['residual']}{dim}  {r['certified']}")


def _cmd_bethe_solve(args) -> int:
    problem = load_problem(args.problem, args.field)
    basic, picks = _select_sectors(problem, args.sector)
    payload = {}
    lines = []
    for label, data, rows in _solve_sectors(problem, basic, picks, args.starts, args.seed):
        payload[label] = {"l": list(data.l), "orbits": rows}
        lines.append(f"sector {label}: sizes {data.l}, {len(rows)} orbit(s)")
        lines += [_orbit_line(r) for r in rows]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_mult(args) -> int:
    data = _master_of(load_problem(args.problem, args.field))
    point = _parse_point(args.point, data.ring)
    # the cleared system also vanishes on collisions, which are no critical points
    check_admissible(point, data)
    flat = tuple(v for lev in point for v in lev)
    res = local_multiplicity(clear_denominators(data), flat, max_order=args.max_order)
    payload = {"multiplicity": res.multiplicity, "trace": list(res.trace),
               "mode": res.mode, "order": res.order}
    _emit(args, payload,
          f"local multiplicity {res.multiplicity} (dual dimensions {list(res.trace)}, "
          f"{res.mode} mode)")
    return 0


def _cmd_reproduce(args) -> int:
    basic = _basic_of(load_problem(args.problem, args.field))
    ys = [parse_poly(s, basic.ring) for s in args.tuple.split(";")]
    t = FertileTuple(basic.ring, tuple(ys), basic.T, tuple(z for z, _ in basic.points))
    report = is_fertile(t)
    if not report.ok:
        print(f"tuple is not fertile:\n{report}", file=sys.stderr)
        return 1
    if args.mutate:
        new, ytilde, c = mutate(t, args.mutate)
        payload = {"direction": args.mutate, "ytilde": format_poly(ytilde),
                   "shift": c, "tuple": [format_poly(y) for y in new.y]}
        _emit(args, payload,
              f"mutated in direction {args.mutate} (shift {c}):\n  " +
              "\n  ".join(format_poly(y) for y in new.y))
        return 0
    space = build_space(t)
    back = theta(space)
    payload = {
        "basis": [format_poly(u) for u in space.basis],
        "kappa": [format_scalar(k) for k in space.kappa],
        "w": list(space.w),
        "infinity_exponents": list(space.infinity_exponents),
        "finite_exponents": {format_scalar(z): list(e)
                             for z, e in space.finite_exponents},
        "theta_round_trip": [format_poly(y) for y in back],
    }
    lines = ["built space:"]
    lines += [f"  u_{i + 1} = {format_poly(u)}" for i, u in enumerate(space.basis)]
    lines.append(f"  exponents at infinity: {fmt_exps(space.infinity_exponents)} (w = {space.w})")
    for z, e in space.finite_exponents:
        lines.append(f"  exponents at {format_scalar(z)}: {fmt_exps(e)}")
    lines.append("  theta round trip: " + "; ".join(format_poly(y) for y in back))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_wronskian_solve(args) -> int:
    ring = _field_from_spec(args.field) if args.field else QQ
    y = parse_poly(args.y, ring)
    T = parse_poly(args.T, ring)
    try:
        sol = solve(y, T)
    except NotSolvable:
        print(f"no polynomial g solves Wr({format_poly(y)}, g) = {format_poly(T)}",
              file=sys.stderr)
        return 1
    generic = generic_candidate(sol.particular, y)[0].monic()
    payload = {"particular": format_poly(sol.particular),
               "homogeneous": format_poly(sol.homogeneous),
               "generic_monic": format_poly(generic)}
    _emit(args, payload,
          f"particular: {format_poly(sol.particular)}\n"
          f"homogeneous: c * {format_poly(sol.homogeneous)}\n"
          f"generic monic member: {format_poly(generic)}")
    return 0


def _cmd_from_master(args) -> int:
    problem = load_problem(args.problem, args.field)
    if not isinstance(problem, MasterData):
        raise ParseError("from-master wants a master-data problem file")
    basic, sector = translate_master(problem)
    payload = {
        "basic": _problem_echo(basic),
        "labels": list(sector.labels),
        "w": list(sector.w),
        "lengths": list(basic.lengths),
    }
    lines = [f"basic situation: d = {basic.d}, N = {basic.N}"]
    for z, a in basic.points:
        lines.append(f"  at {format_scalar(z)}: ram {tuple(a)}")
    lines.append(f"  at infinity: ram {tuple(basic.infinity)}")
    lines.append(f"sector: labels {sector.labels}, w = {sector.w}")
    _emit(args, payload, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify pipeline

def run_verify(problem, *, sector: str = "own", starts: int = 200, seed: int = 0,
               exact_tuple: str | None = None) -> dict:
    """End-to-end check: solve sectors, certify orbits, compare to the target.

    This is the one place where a sector's multiplicity sum meets the
    intersection number and gets its verdict.  Returns the report dict; the
    "report" part is byte-stable for fixed inputs, and the diagnostics of the
    point sector's solve and the timing sit next to it.
    """
    t0 = time.perf_counter()
    basic, picks = _select_sectors(problem, sector)
    target = intersection_number(basic)
    sectors = {}
    for label, data, rows in _solve_sectors(problem, basic, picks, starts, seed):
        total = sum(r["multiplicity"] for r in rows)
        verdict = "MATCH" if total == target else \
            ("UNDERCOUNT" if total < target else "OVERCOUNT")
        # an uncertified orbit may be spurious: without it the sector falls short
        if total <= target and any(r["certified"].startswith("UNCERTIFIED") for r in rows):
            verdict = "UNDERCOUNT"
        sectors[label] = {"l": list(data.l), "orbits": rows,
                          "multiplicity_sum": total, "verdict": verdict}

    # top-level verdict: the identity sector's when present, else the single
    # requested sector's; a non-identity sector may legitimately undercount
    idkey = ",".join(map(str, range(1, basic.N + 2)))
    verdict = sectors.get(idkey, next(iter(sectors.values())))["verdict"]

    report = {
        "problem": _problem_echo(problem),
        "lr_target": target,
        "sectors": sectors,
        "verdict": verdict,
    }
    if exact_tuple is not None:
        report["exact"] = _exact_leg(problem, basic, exact_tuple)
    return {"report": report, "diagnostics": _diagnostics(basic),
            "timing_s": round(time.perf_counter() - t0, 3)}


def _diagnostics(basic: BasicSituation) -> dict:
    """How the point sector was solved: its route, and D on the Bethe route.

    The route is "bethe" when every nonzero weight is omega_1 (the joint
    eigenvalues of the Gaudin Hamiltonians on a singular space of dimension
    singular_dim), "multistart" otherwise, and null when no space realizes
    the data.
    """
    try:
        data = master_from_sector(basic, point_sector(basic.N))
    except EmptySector:
        return {"route": None, "singular_dim": None}
    if gaudin.covers(data):
        return {"route": "bethe", "singular_dim": gaudin.singular_dim(data)}
    return {"route": "multistart", "singular_dim": None}


def _exact_leg(problem, basic: BasicSituation, tuple_text: str) -> dict:
    """Certify a supplied exact tuple and push it through the space builder."""
    data = _master_of(problem)
    ys = tuple(parse_poly(s, basic.ring) for s in tuple_text.split(";"))
    cert = certify_divisibility(ys, data)
    t = FertileTuple(basic.ring, ys, basic.T, tuple(z for z, _ in basic.points))
    space = build_space(t)
    checks = wronskian_ram_check(space.basis, basic)
    return {
        "certificate": str(cert),
        "basis": [format_poly(u) for u in space.basis],
        "ram_checks": list(checks),
    }


def _cmd_verify(args) -> int:
    problem = load_problem(args.problem, args.field)
    out = run_verify(problem, sector=args.sector, starts=args.starts, seed=args.seed,
                     exact_tuple=args.exact_tuple)
    report = out["report"]
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        lines = [f"LR target: {report['lr_target']}"]
        for label, sec in report["sectors"].items():
            lines.append(f"sector {label} (sizes {sec['l']}): "
                         f"multiplicity sum {sec['multiplicity_sum']} -> {sec['verdict']}")
            lines += [_orbit_line(r) for r in sec["orbits"]]
        if "exact" in report:
            lines.append("exact leg: " + report["exact"]["certificate"])
            for u in report["exact"]["basis"]:
                lines.append(f"  basis {u}")
        lines.append(f"verdict: {report['verdict']}")
        lines.append(f"time: {out['timing_s']} s")
        print("\n".join(lines))
    if report["verdict"] == "UNDERCOUNT":
        return _UNDER_EXIT
    if report["verdict"] == "OVERCOUNT":
        return _OVER_EXIT
    return 0


# ---------------------------------------------------------------------------
# dispatch

def _positive_int(text: str) -> int:
    # --starts is the number of Newton paths, --max-order the highest dual order
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    top = _Parser(prog="wroncrit", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--field", help="rational or extension:<minpoly>; overrides the file")

    def solver(p):
        p.add_argument("--sector", default="own", help="identity, all, own, or a permutation 2,1")
        p.add_argument("--starts", type=_positive_int, default=200,
                       help="Newton paths, for weights outside the Bethe route")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check a problem file, print derived data")
    common(p)

    p = sub.add_parser("lr", help="intersection number of the problem")
    common(p)

    p = sub.add_parser("bethe-solve", help="numeric critical orbits per sector")
    common(p)
    solver(p)

    p = sub.add_parser("mult", help="local multiplicity of the critical system at a point")
    common(p)
    p.add_argument("--point", required=True, help="levels ';'-separated, coordinates ','")
    p.add_argument("--max-order", type=_positive_int, default=20)

    p = sub.add_parser("reproduce", help="fertility, mutation and the built space")
    common(p)
    p.add_argument("--tuple", required=True, help="level polynomials, ';'-separated")
    p.add_argument("--mutate", type=int, default=0, metavar="I",
                   help="apply one reproduction step in direction I instead")

    p = sub.add_parser("wronskian-solve", help="solve Wr(y, g) = T for g")
    p.add_argument("y")
    p.add_argument("T")
    p.add_argument("--json", action="store_true")
    p.add_argument("--field", help="rational or extension:<minpoly>")

    p = sub.add_parser("from-master", help="translate master data to a basic situation")
    common(p)

    p = sub.add_parser("verify", help="full pipeline: solve, certify, compare to target")
    common(p)
    solver(p)
    p.add_argument("--exact-tuple", help="';'-separated exact tuple for the exact leg")

    return top


_COMMANDS = {
    "validate": _cmd_validate,
    "lr": _cmd_lr,
    "bethe-solve": _cmd_bethe_solve,
    "mult": _cmd_mult,
    "reproduce": _cmd_reproduce,
    "wronskian-solve": _cmd_wronskian_solve,
    "from-master": _cmd_from_master,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return _PARSE_EXIT
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_EXIT
    except WroncritError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
