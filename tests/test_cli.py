"""Command-line surface: parsing, dispatch, exit codes, report stability.

The golden test re-runs the verify pipeline by composing the library calls
directly and demands the same numbers; the CLI must stay a thin shell.
"""

import json
from pathlib import Path

import pytest

from wroncrit import cli
from wroncrit.bethe import MasterData, solve_critical, translate_master
from wroncrit.cli import load_problem, main, run_verify
from wroncrit.errors import NotCertified, ParseError
from wroncrit.field import format_scalar, make_extension
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

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    capsys.readouterr()

    # one start finds one of the two simple roots: genuine undercount
    assert main(["verify", RATIONAL, "--starts", "1", "--seed", "0"]) == 4
    capsys.readouterr()


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


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("WRONCRIT_SEED", "7")
    assert main(["bethe-solve", RATIONAL, "--json", "--starts", "30"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("WRONCRIT_SEED")
    assert main(["bethe-solve", RATIONAL, "--json", "--starts", "30", "--seed", "7"]) == 0
    assert capsys.readouterr().out == with_env


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
