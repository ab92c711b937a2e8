"""Command-line surface: parsing, dispatch, exit codes, report stability.

The golden test re-runs the verify pipeline by composing the library calls
directly and demands the same numbers; the CLI must stay a thin shell.
"""

import json
import warnings
from pathlib import Path

import pytest

from wroncrit import bethe, cli
from wroncrit.bethe import MasterData, solve_critical, translate_master
from wroncrit.cli import load_problem, main, run_verify
from wroncrit.errors import NotCertified, ParseError
from wroncrit.field import QQ, format_scalar, make_extension
from wroncrit.polyring import format_poly, parse_poly
from wroncrit.ramification import BasicSituation
from wroncrit.schubert import intersection_number

PROB = Path(__file__).resolve().parent.parent / "problems"
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
    def refuse(*args, **kwargs):
        raise NotCertified("refused")

    monkeypatch.setattr(cli, "certify_divisibility", refuse)
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
    # and to every built sector; a basic problem translates its point sector once
    calls = []
    translate = bethe.translate_master

    def counting(data):
        calls.append(data)
        return translate(data)

    monkeypatch.setattr(bethe, "translate_master", counting)
    monkeypatch.setattr(cli, "translate_master", counting)
    report = run_verify(problem, sector=sector)["report"]
    assert report["verdict"] == "MATCH" and len(calls) <= 1
