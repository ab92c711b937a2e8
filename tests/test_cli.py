"""Command-line surface: parsing, dispatch, exit codes, report stability.

The golden test re-runs the verify pipeline by composing the library calls
directly and demands the same numbers; the CLI must stay a thin shell.
"""

import importlib.util
import itertools
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from wroncrit import bethe, cli, ramification
from wroncrit.bethe import (MasterData, master_from_sector, point_sector, solve_critical,
                            translate_master)
from wroncrit.cli import load_problem, main, run_verify
from wroncrit.errors import EmptySector, NotCertified, ParseError, WroncritError
from wroncrit.field import QQ, format_scalar, make_extension
from wroncrit.polyring import format_poly, parse_poly
from wroncrit.ramification import BasicSituation, validate_basic, without_base_points
from wroncrit.schubert import intersection_number

PROB = Path(__file__).resolve().parent.parent / "problems"
# the benchmark's Pieri-rule counts, which do not import wroncrit
_ORACLES = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parent.parent / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_ORACLES)
_ORACLES.loader.exec_module(oracles)
CUBE = str(PROB / "example_cuberoots.json")
CUBE_MASTER = str(PROB / "example_cuberoots_master.json")
RATIONAL = str(PROB / "variant_rational.json")


def test_load_problem_kinds():
    master = load_problem(RATIONAL)
    assert isinstance(master, MasterData) and master.l == (1,)
    basic = load_problem(CUBE)
    assert isinstance(basic, BasicSituation) and (basic.d, basic.N) == (3, 1)
    # --field overrides the file's field block
    lifted = load_problem(RATIONAL, "extension:x^2+x+1")
    assert lifted.ring.degree == 2
    with pytest.raises(ParseError):
        load_problem(RATIONAL, "gaussian")
    with pytest.raises(ParseError):
        load_problem(str(PROB / "no_such.json"))


def test_exit_codes(tmp_path, capsys):
    assert main(["lr", RATIONAL]) == 0
    assert "2" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["lr", str(bad)]) == 2

    unreal = tmp_path / "unreal.json"
    unreal.write_text(json.dumps({
        "kind": "basic", "d": 3, "N": 1,
        "points": [{"z": "0", "ram": [5, 0]}],
        "infinity": {"ram": [1, 0]},
    }))
    assert main(["lr", str(unreal)]) == 3
    capsys.readouterr()

    assert main(["bethe-solve", RATIONAL, "--sector", "bogus"]) == 2
    capsys.readouterr()

    assert main(["lr", CUBE, "--field", "extension:x^2-4"]) == 3
    assert capsys.readouterr().err == "error: a^2 - 4 factors over the rationals\n"

    # a field that is neither a string nor an object is a parse failure
    for field in (3, ["rational"]):
        odd = tmp_path / "odd_field.json"
        odd.write_text(json.dumps(dict(json.loads(Path(RATIONAL).read_text()), field=field)))
        assert main(["lr", str(odd)]) == 2
        assert capsys.readouterr().err.startswith("error: bad field ")

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    capsys.readouterr()

    # one multistart start finds one of the two simple roots: genuine undercount
    assert main(["verify", _weight_two(tmp_path), "--starts", "1", "--seed", "0"]) == 4
    capsys.readouterr()


MASTER_RAW = {"l": [1], "points": [{"z": z, "m": [1]} for z in ("0", "1", "-1")]}
BASIC_RAW = {"kind": "basic", "d": 3, "N": 1, "infinity": {"ram": [1, 0]},
             "points": [{"z": z, "ram": [1, 0]} for z in ("0", "1", "-1")]}
# weight 2 at z = 1: outside the Bethe route, so --starts acts on it
WEIGHT_TWO_RAW = {"l": [1], "points": [{"z": z, "m": [m]} for z, m in (("0", 1), ("1", 2),
                                                                     ("-1", 1))]}


def _weight_two(tmp_path) -> str:
    path = tmp_path / "weight_two.json"
    path.write_text(json.dumps(WEIGHT_TWO_RAW))
    return str(path)


@pytest.mark.parametrize("raw, commands", [
    pytest.param(dict(MASTER_RAW, l=[1.9]), ("lr", "from-master"), id="l"),
    pytest.param(dict(MASTER_RAW, points=[{"z": "0", "m": [1.9]}] + MASTER_RAW["points"][1:]),
                 ("lr", "from-master"), id="m"),
    pytest.param(dict(BASIC_RAW, d=3.7), ("lr",), id="d"),
    pytest.param(dict(BASIC_RAW, N=1.5), ("lr",), id="N"),
    pytest.param(dict(BASIC_RAW, points=[{"z": "0", "ram": [1.2, 0]}] + BASIC_RAW["points"][1:]),
                 ("lr",), id="ram"),
])
def test_non_integer_entries_refused(tmp_path, capsys, raw, commands):
    # a fractional size, weight, dimension or ramification entry is bad
    # data (exit 3), not something to truncate
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(raw))
    for command in commands:
        assert main([command, str(path)]) == 3
        assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bethe-solve"])
@pytest.mark.parametrize("starts", ["0", "-3", "x"])
def test_starts_must_be_positive(command, starts, capsys):
    # --starts is the number of Newton paths, so fewer than one is a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, RATIONAL, "--starts", starts])
    assert exc.value.code == 64
    assert "--starts: want a positive integer" in capsys.readouterr().err


def test_verify_matches_library_composition():
    problem = load_problem(RATIONAL)
    out = run_verify(problem, starts=60, seed=2)
    report = out["report"]

    basic, sector = translate_master(problem)
    assert report["lr_target"] == intersection_number(basic)
    orbits = solve_critical(problem, starts=60, seed=2)
    sec = report["sectors"]["own"]
    assert sec["l"] == [1]
    assert sec["multiplicity_sum"] == sum(o.multiplicity for o in orbits)
    assert [r["point"] for r in sec["orbits"]] == \
        [[[format_scalar(v) for v in lev] for lev in o.point] for o in orbits]
    assert all(r["certified"] == "certified" for r in sec["orbits"])
    assert report["verdict"] == "MATCH"


def test_uncertified_orbit_reads_undercount(monkeypatch):
    # the multiplicities add up to the target, but no orbit is certified
    def refuse(tuples, *args, **kwargs):
        return [NotCertified("refused") for _ in tuples]

    monkeypatch.setattr(cli, "certify_tuples", refuse)
    report = run_verify(load_problem(RATIONAL), starts=60, seed=2)["report"]
    sec = report["sectors"]["own"]
    assert sec["multiplicity_sum"] == report["lr_target"]
    assert all(r["certified"] == "UNCERTIFIED: refused" for r in sec["orbits"])
    assert sec["verdict"] == report["verdict"] == "UNDERCOUNT"


def test_verify_report_is_stable():
    problem = load_problem(CUBE_MASTER)
    a = run_verify(problem, starts=50, seed=4)
    b = run_verify(problem, starts=50, seed=4)
    assert json.dumps(a["report"], sort_keys=True) == json.dumps(b["report"], sort_keys=True)


def test_verify_cli_json(capsys):
    assert main(["verify", RATIONAL, "--json", "--starts", "60", "--seed", "2"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = run_verify(load_problem(RATIONAL), starts=60, seed=2)
    assert got["report"] == want["report"]


def test_verify_identity_sector(capsys):
    assert main(["verify", CUBE, "--sector", "identity", "--starts", "150"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity sum 2 -> MATCH" in out
    assert "dim 1" in out          # the identity sector carries a solution curve


def test_exact_leg():
    out = run_verify(load_problem(CUBE_MASTER), starts=50, seed=0, exact_tuple="x")
    exact = out["report"]["exact"]
    assert exact["basis"] == ["x", "x^3 + 2"]
    assert exact["certificate"].startswith("divisibility [exact]")
    assert len(exact["ram_checks"]) > 0


def test_validate_and_from_master(capsys):
    assert main(["validate", CUBE]) == 0
    out = capsys.readouterr().out
    assert "K_2" in out and "x^3-1" in out.replace(" ", "")

    assert main(["from-master", RATIONAL]) == 0
    out = capsys.readouterr().out
    assert "3, 1" in out or "(3, 1)" in out

    assert main(["from-master", CUBE]) == 2       # needs master data
    capsys.readouterr()


def test_wronskian_solve_cmd(capsys):
    assert main(["wronskian-solve", "x", "x^3-1"]) == 0
    out = capsys.readouterr().out
    assert "x^3+2" in out.replace(" ", "")
    assert main(["wronskian-solve", "x^2", "x"]) == 1   # square-free gate
    capsys.readouterr()
    assert main(["wronskian-solve", "2*x", "1"]) == 3   # not monic: a data error
    assert capsys.readouterr().err == "error: y must be monic\n"


def test_wronskian_solve_cmd_number_field(capsys):
    # over Q(sqrt3) format_poly prints x^2 - a and a*x; both parse
    field = ["--field", "extension:x^2-3"]
    assert main(["wronskian-solve", "x^2-a", "1", *field]) == 1   # no solution, read fine
    capsys.readouterr()
    assert main(["wronskian-solve", "x^2-a", "a*x", "--json", *field]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["homogeneous"] == "x^2 - a"
    K = make_extension("x^2-3")
    for s in out.values():
        assert format_poly(parse_poly(s, K)) == s


def test_mult_cmd(capsys):
    assert main(["mult", RATIONAL, "--point", "0.5773502691896257"]) == 0
    out = capsys.readouterr().out
    assert "local multiplicity 1" in out
    assert main(["mult", CUBE_MASTER, "--point", "0"]) == 0
    assert "local multiplicity 2" in capsys.readouterr().out


def test_mult_cmd_component_sample_not_isolated(capsys):
    # a sample of the cube roots' 1-dimensional component (sector 1,2): at
    # the solver's rank tolerance its dual spaces keep growing
    sample = ("(-1.226638219914659-0.0349352537860204j),(0.5830376412379825-1.1024488205704999j),"
              "(0.6436006254957382+1.1373840807194442j)")
    assert main(["mult", CUBE, "--max-order", "6", "--point", sample]) == 1
    assert "dual space still growing at order 6" in capsys.readouterr().err


def test_mult_cmd_reads_the_solver_multiplicity(capsys):
    # 1e-7 from the double point at 0 is within the solver's rank tolerance,
    # so mult reads the multiplicity 2 the solver reports there
    assert main(["mult", CUBE_MASTER, "--point", "0.0000001", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["multiplicity"], out["mode"]) == (2, "numeric")


def test_mult_cmd_rejects_bad_points(tmp_path, capsys):
    # F vanishes where two coordinates meet; that root is no critical point
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"l": [2], "points": [
        {"z": z, "m": [1]} for z in ("0", "1", "-1", "2")]}))
    assert main(["mult", str(two), "--point", "0,0"]) == 1
    assert "collide" in capsys.readouterr().err
    assert main(["mult", str(two), "--point", "0.5"]) == 3
    assert "level 1 has 1 coordinates, want 2" in capsys.readouterr().err
    assert main(["mult", str(two), "--point", "0.5;0.25"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("order", ["0", "-1", "x"])
def test_max_order_must_be_positive(order, capsys):
    # a dual space of order below 1 is no bound: a usage error, not a failed climb
    with pytest.raises(SystemExit) as exc:
        main(["mult", RATIONAL, "--point", "0.5773502691896257", "--max-order", order])
    assert exc.value.code == 64
    assert "--max-order: want a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["x.y", "1e"])
def test_mult_cmd_malformed_float(token, capsys):
    assert main(["mult", RATIONAL, "--point", token]) == 2
    assert repr(token) in capsys.readouterr().err


def test_reproduce_cmd(capsys):
    assert main(["reproduce", CUBE, "--tuple", "x"]) == 0
    out = capsys.readouterr().out
    assert "x^3+2" in out.replace(" ", "")

    assert main(["reproduce", CUBE, "--tuple", "x", "--mutate", "1"]) == 0
    assert "x^3+2" in capsys.readouterr().out.replace(" ", "")

    # x^2 shares a root with nothing but is not square-free: infertile
    assert main(["reproduce", CUBE, "--tuple", "x^2-2*x+1"]) == 1
    capsys.readouterr()


def test_tol_flag_is_gone(capsys):
    # certification runs at certify_divisibility's fixed tolerance
    with pytest.raises(SystemExit) as exc:
        main(["verify", RATIONAL, "--tol", "1e-6"])
    assert exc.value.code == 64
    assert "--tol" in capsys.readouterr().err


def test_undercount_is_named_by_the_verdict_alone(tmp_path, capsys):
    # one multistart start finds one of the two orbits: exit 4, and nothing on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", _weight_two(tmp_path), "--starts", "1"]) == 4
    out = capsys.readouterr()
    assert out.err == ""
    assert "multiplicity sum 1 -> UNDERCOUNT" in out.out


@pytest.mark.parametrize("problem, sector", [
    (MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2))), "own"),
    (MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2))), "all"),
    (MasterData(QQ, (3,), tuple((z, (1,)) for z in (0, 1, -1))), "own"),
    (load_problem(CUBE), "all"),
], ids=["sl3-own", "sl3-all", "identity-own", "cuberoots-basic-all"])
def test_verify_translates_its_problem_once(problem, sector, monkeypatch):
    # the basic situation is built once and handed to the point-sector solve
    # and to every built sector; a basic problem loses its base points
    # (without_base_points) and is not translated at all
    calls = []
    translate = bethe.translate_master

    def counting(data):
        calls.append(data)
        return translate(data)

    monkeypatch.setattr(bethe, "translate_master", counting)
    monkeypatch.setattr(cli, "translate_master", counting)
    report = run_verify(problem, sector=sector)["report"]
    assert report["verdict"] == "MATCH" and len(calls) <= 1


def test_verify_certifies_each_sector_in_one_stacked_call(monkeypatch):
    # one certify_tuples call per sector, and no Poly arithmetic over CC:
    # the certificate no longer reaches bethe's wronskian_pair
    calls, pairs = [], []
    stacked, pair = cli.certify_tuples, bethe.wronskian_pair
    monkeypatch.setattr(cli, "certify_tuples",
                        lambda tuples, data: calls.append(len(tuples)) or stacked(tuples, data))
    monkeypatch.setattr(bethe, "wronskian_pair", lambda *a: pairs.append(a) or pair(*a))
    problem = MasterData(QQ, (2, 1), tuple((z, (1, 0)) for z in (0, 1, -1, 2, -2)))
    report = run_verify(problem, sector="all")["report"]
    assert report["verdict"] == "MATCH"
    assert calls == [len(s["orbits"]) for s in report["sectors"].values()]
    assert len(calls) == 6 and pairs == []


@pytest.mark.parametrize("problem", [
    MasterData(QQ, (5,), tuple((z, (1,)) for z in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5))),
    load_problem(RATIONAL),
], ids=["sl2-n10-k5", "variant_rational"])
def test_own_sector_verify_builds_no_K_or_T(problem, monkeypatch):
    # an own-sector verify reads only deg K_i, which are sums of the
    # integer orders e_i(z): the cached K and T of every basic situation it
    # makes stay unset
    made = []
    validate = ramification.validate_basic

    def keeping(*args):
        made.append(validate(*args))
        return made[-1]

    for module in (ramification, bethe, cli):
        monkeypatch.setattr(module, "validate_basic", keeping)
    assert run_verify(problem, sector="own")["report"]["verdict"] == "MATCH"
    assert made and not any("K" in vars(b) or "T" in vars(b) for b in made)


BASE_POINT = {"kind": "basic", "d": 3, "N": 1, "points": [{"z": "0", "ram": [2, 0]}],
              "infinity": {"ram": [1, 1]}}


def test_verify_reads_match_where_the_base_point_leaves_no_space(tmp_path, capsys):
    # (1, 1) at infinity is a base point: without it d = 2, where (2, 0) at 0
    # is not realizable; the intersection number is 0 and so is the count
    path = tmp_path / "base_point.json"
    path.write_text(json.dumps(BASE_POINT))
    assert main(["verify", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    report = out["report"]
    assert report["verdict"] == "MATCH" and report["lr_target"] == 0
    assert all(s["orbits"] == [] and s["verdict"] == "MATCH" for s in report["sectors"].values())
    assert out["diagnostics"] == {"route": None, "singular_dim": None}
    assert main(["verify", str(path), "--sector", "all"]) == 0
    assert main(["lr", str(path)]) == 0
    assert "intersection number: 0" in capsys.readouterr().out


UNREALIZABLE = {"l": [2], "points": [{"z": "0", "m": [2]}]}


def test_master_data_that_no_space_realizes_have_no_critical_point(tmp_path, capsys):
    # the labels give d = 2, where (2, 0) at 0 does not fit: no basic
    # situation exists, and r_1 = 2/(t_1 - t_2) - 2/t_1 = 0 forces t_2 = 0
    path = tmp_path / "unrealizable.json"
    path.write_text(json.dumps(UNREALIZABLE))
    assert main(["verify", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["verdict"] == "MATCH" and out["report"]["lr_target"] == 0
    assert out["report"]["sectors"] == {
        "own": {"l": [2], "orbits": [], "multiplicity_sum": 0, "verdict": "MATCH"}}
    assert out["diagnostics"] == {"route": None, "singular_dim": None}
    for sector in ("identity", "all", "2,1"):
        assert main(["verify", str(path), "--sector", sector]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--sector", "bogus"]) == 2
    assert capsys.readouterr().err.startswith("error: bad sector 'bogus'")
    # a sector that is no permutation of 1..N+1 is refused as on realizable data
    for command in ("verify", "bethe-solve"):
        for sector, shown in (("9,9", "(9, 9)"), ("1,2,3", "(1, 2, 3)")):
            assert main([command, str(path), "--sector", sector]) == 3
            assert capsys.readouterr().err == f"error: {shown} is not a bijection of 1..2\n"
    assert main(["lr", str(path)]) == 0
    assert capsys.readouterr().out == "intersection number: 0\n"
    assert main(["bethe-solve", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"own": {"l": [2], "orbits": []}}
    # validate and from-master print the basic situation, and there is none;
    # the exact leg builds a space in it
    for command in (["validate"], ["from-master"], ["verify", "--exact-tuple", "x^2"]):
        assert main([*command, str(path)]) == 3
        assert capsys.readouterr().err == "error: leading entry 2 exceeds d - N = 1\n"


@pytest.mark.parametrize("n, k, message", [
    (3, 2, "labels (2, 2) collide"),
    (5, 3, "labels (3, 3) collide"),
    (7, 4, "labels (4, 4) collide"),
    (3, 5, "label c_2 = -1 is negative"),
    (4, 6, "label c_2 = -1 is negative"),
])
def test_labels_that_collide_or_go_negative_read_like_unrealizable_data(n, k, message,
                                                                        tmp_path, capsys):
    # sl2 at the first n ladder points 0, 1, -1, 2, .. with l = (k,): no space
    # realizes the labels at infinity, and the closed form C(n, k) - C(n, k-1)
    # is 0, so every command reads the data as it reads UNREALIZABLE
    assert oracles.sl2_count(n, k) == 0
    zs = [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(n)]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"l": [k], "points": [{"z": str(z), "m": [1]} for z in zs]}))
    assert solve_critical(load_problem(str(path))) == []
    assert main(["verify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "MATCH" and report["lr_target"] == 0
    assert report["sectors"] == {
        "own": {"l": [k], "orbits": [], "multiplicity_sum": 0, "verdict": "MATCH"}}
    assert main(["lr", str(path)]) == 0
    assert capsys.readouterr().out == "intersection number: 0\n"
    assert main(["bethe-solve", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"own": {"l": [k], "orbits": []}}
    for command in ("validate", "from-master"):
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_no_sector_of_the_base_point_situation_has_a_critical_point():
    # both sectors' data translate to d = 2, where (2, 0) at 0 does not fit
    basic = validate_basic(QQ, 3, 1, [(Fraction(0), (2, 0))], (1, 1))
    sectors = [spec.w for spec in bethe.sectors_of(basic)]
    assert sectors == [(1, 2), (2, 1)]
    for w in sectors:
        assert solve_critical(master_from_sector(basic, w)) == []


def _ram_sequences(d, N):
    return [a for a in itertools.product(range(d - N + 1), repeat=N + 1)
            if all(a[i] >= a[i + 1] for i in range(N))]


def _small_basic_situations():
    # every basic situation with (d, N) in (2, 1), (3, 1), (4, 1), (3, 2),
    # (4, 2) and its points at 0, at 0 and 1, or at 0, 1 and -1, that
    # validate_basic accepts
    for d, N in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2)):
        for zs in ((0,), (0, 1), (0, 1, -1)):
            for seqs in itertools.product(_ram_sequences(d, N), repeat=len(zs) + 1):
                try:
                    yield validate_basic(QQ, d, N, [(Fraction(z), a) for z, a in zip(zs, seqs)],
                                         seqs[-1])
                except WroncritError:
                    continue


def _situation_name(basic, sector):
    points = " ".join(f"{format_scalar(z)}:{''.join(map(str, a))}" for z, a in basic.points)
    return f"d{basic.d} N{basic.N} {points} inf:{''.join(map(str, basic.infinity))} {sector}"


def _pieri_target(basic):
    # N = 1: in Gr(2, d + 1), sigma_(a, b) = sigma_(a - b) sigma_(1, 1)^b, so
    # every class is a product of a row and columns, which Pieri multiplies
    classes = []
    for a in [a for _, a in basic.points] + [basic.infinity]:
        classes += [(a[0] - a[1],)] + [(1, 1)] * a[1]
    return oracles.pieri_count(2, basic.d - 1, classes)


# the multistart runs (starts=20, seed 0) that miscount: the ledger of the
# solver's lost and doubled orbits, verdict by run as read with numpy 2.4 on
# OpenBLAS 0.3.31's SkylakeX kernels.  Its Haswell, Sandybridge and Prescott
# kernels read the four d4 N1 runs with (3, 0) at 1 or -1 as UNDERCOUNT, so the
# test holds the names, not the verdicts: no run outside the ledger miscounts.
MULTISTART_MISCOUNTS = {
    "d4 N1 0:30 1:20 inf:10 own": "UNDERCOUNT",
    "d4 N1 0:30 1:20 inf:10 all": "UNDERCOUNT",
    "d4 N1 0:30 1:30 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:30 1:30 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:00 1:30 -1:30 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:00 1:30 -1:30 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:10 1:10 -1:30 inf:10 own": "OVERCOUNT",
    "d4 N1 0:10 1:10 -1:30 inf:10 all": "OVERCOUNT",
    "d4 N1 0:10 1:20 -1:30 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:10 1:20 -1:30 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:10 1:30 -1:10 inf:10 own": "OVERCOUNT",
    "d4 N1 0:10 1:30 -1:10 inf:10 all": "OVERCOUNT",
    "d4 N1 0:10 1:30 -1:20 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:10 1:30 -1:20 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:20 1:10 -1:30 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:20 1:10 -1:30 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:20 1:20 -1:20 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:20 1:20 -1:20 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:20 1:30 -1:10 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:20 1:30 -1:10 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:30 1:00 -1:30 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:30 1:00 -1:30 inf:00 all": "UNDERCOUNT",
    "d4 N1 0:30 1:20 -1:00 inf:10 own": "UNDERCOUNT",
    "d4 N1 0:30 1:20 -1:00 inf:10 all": "UNDERCOUNT",
    "d4 N1 0:30 1:30 -1:00 inf:00 own": "UNDERCOUNT",
    "d4 N1 0:30 1:30 -1:00 inf:00 all": "UNDERCOUNT",
    "d4 N2 0:200 1:220 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:220 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:210 1:200 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:210 1:200 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:210 1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:210 1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:220 1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:220 1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:000 1:200 -1:220 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:000 1:200 -1:220 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:000 1:210 -1:200 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:000 1:210 -1:200 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:000 1:210 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:000 1:210 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:000 1:220 -1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:000 1:220 -1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:100 -1:220 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:100 -1:220 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:110 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:110 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:200 -1:200 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:100 1:200 -1:200 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:100 1:200 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:200 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:210 -1:110 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:210 -1:110 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:210 -1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:210 -1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:100 1:220 -1:100 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:100 1:220 -1:100 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:110 1:100 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:110 1:100 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:110 1:110 -1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:110 1:110 -1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:110 1:200 -1:110 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:110 1:200 -1:110 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:110 1:210 -1:100 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:110 1:210 -1:100 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:000 -1:220 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:000 -1:220 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:100 inf:110 own": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:100 inf:110 all": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:200 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:200 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:100 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:110 -1:110 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:110 -1:110 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:200 -1:100 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:200 1:200 -1:100 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:200 1:200 -1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:200 -1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:210 -1:100 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:210 -1:100 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:200 1:220 -1:000 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:200 1:220 -1:000 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:210 1:000 -1:210 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:210 1:000 -1:210 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:210 1:200 -1:000 inf:100 own": "UNDERCOUNT",
    "d4 N2 0:210 1:200 -1:000 inf:100 all": "UNDERCOUNT",
    "d4 N2 0:210 1:200 -1:100 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:210 1:200 -1:100 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:210 1:210 -1:000 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:210 1:210 -1:000 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:220 1:000 -1:200 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:220 1:000 -1:200 inf:000 all": "UNDERCOUNT",
    "d4 N2 0:220 1:200 -1:000 inf:000 own": "UNDERCOUNT",
    "d4 N2 0:220 1:200 -1:000 inf:000 all": "UNDERCOUNT",
}


def test_verify_raises_on_no_small_basic_situation():
    situations = list(_small_basic_situations())
    assert len(situations) == 895
    unrealizable = empty = bethe_runs = 0
    miscounts = {}
    for basic in situations:
        target = intersection_number(basic)
        if basic.N == 1:
            assert target == _pieri_target(basic), basic
        original = basic.d < 4 and len(basic.points) < 3
        for sector in ("own", "all"):
            out = run_verify(basic, sector=sector, starts=20)
            report = out["report"]
            assert report["lr_target"] == target
            if out["diagnostics"]["route"] == "bethe":
                bethe_runs += 1
                assert report["verdict"] == "MATCH", (basic, sector)
            if original:
                assert report["verdict"] == "MATCH", (basic, sector)
            if report["verdict"] != "MATCH":
                miscounts[_situation_name(basic, sector)] = report["verdict"]
        # the reduction is the basic situation the point sector's data
        # translates to; where it has none, no space realizes the problem
        try:
            reduced = without_base_points(basic)
        except WroncritError:
            unrealizable += 1
            assert target == 0
            continue
        # the point sector minimises every level size: where one is negative,
        # no sector has a critical point
        try:
            point_data = master_from_sector(basic, point_sector(basic.N))
        except EmptySector:
            empty += 1
            assert target == 0
            continue
        assert reduced == translate_master(point_data)[0]
    assert (unrealizable, empty, bethe_runs) == (195, 6, 552)
    assert set(miscounts) <= set(MULTISTART_MISCOUNTS)
