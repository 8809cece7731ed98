import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfield import cli, dynsys
from greenfield.cli import SystemConfig, run
from greenfield.dynsys import escape_rate
from greenfield.experiments import EllipticCurve, LattesSystem, multiples_search

SRC = str(Path(__file__).resolve().parents[1] / "src")
HALF = str(Path(__file__).resolve().parent / "golden" / "half.json")


@pytest.fixture()
def power_cfg(tmp_path):
    path = tmp_path / "power.json"
    path.write_text(json.dumps({
        "N": 1, "d": 2, "forms": ["x0^2", "x1^2"],
        "hypersurface": None, "r_convention": "invariant",
    }))
    return str(path)


@pytest.fixture()
def half_cfg(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "N": 1, "d": 2, "forms": ["x0^2 + 1/2*x1^2", "x1^2"],
    }))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_resultant_prints_exact_rational(capsys, power_cfg, half_cfg):
    code, out = run_json(capsys, ["resultant", power_cfg])
    assert code == 0 and out.strip() == "1"
    code, out = run_json(capsys, ["resultant", half_cfg])
    assert code == 0 and out.strip() == "1"


def test_height_command(capsys, power_cfg):
    code, out = run_json(capsys, ["height", power_cfg, "--point", "2,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"]["value"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["weil"]["value"] == pytest.approx(math.log(2), abs=1e-12)


def test_escape_command(capsys, power_cfg):
    code, out = run_json(capsys, ["escape", power_cfg, "--point", "1/2,1",
                                  "--place", "p=2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["membership"] == "outside"
    assert payload["value"] == pytest.approx(math.log(2), abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_escape_error_covers_the_value_near_the_julia_set(capsys, tmp_path):
    # z^2 - 2 at z = 2 + 1e-12, just outside its Julia set [-2, 2]: with
    # z = w + 1/w the escape rate is log w, which the printed error must cover
    path = tmp_path / "chebyshev.json"
    path.write_text(json.dumps({"N": 1, "d": 2, "forms": ["x0^2 - 2*x1^2", "x1^2"]}))
    code, out = run_json(capsys, ["escape", str(path), "--point",
                                  "2000000000001/1000000000000,1", "--tol", "1e-11"])
    assert code == 0
    payload = json.loads(out)
    with mpmath.workdps(60):
        z = mpmath.mpf(2000000000001) / 1000000000000
        log_w = float(mpmath.log((z + mpmath.sqrt(z * z - 4)) / 2))
    assert abs(payload["value"] - log_w) <= payload["error"]


def test_escape_command_computes_the_rate_once(capsys, monkeypatch, half_cfg):
    calls = []

    def counted(*args):
        calls.append(args)
        return escape_rate(*args)
    monkeypatch.setattr(dynsys, "escape_rate", counted)
    monkeypatch.setattr(cli, "escape_rate", counted)
    code, out = run_json(capsys, ["escape", half_cfg, "--point", "3/2,1",
                                  "--place", "p=2"])
    assert code == 0 and json.loads(out)["membership"] == "outside"
    assert len(calls) == 1


def test_basis_command_roundtrips(capsys, power_cfg, tmp_path):
    code, out = run_json(capsys, ["basis", power_cfg, "--n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 7
    assert len(payload["elements"]) == 7
    from greenfield.homopoly import parse_form, form_str
    for el in payload["elements"]:
        assert form_str(parse_form(el["form"], 2)) == el["form"]
    # a basis that leaves the primary window says so
    quintic = tmp_path / "quintic.json"
    quintic.write_text(json.dumps({"N": 1, "d": 5, "forms": ["x0^5", "x1^5"]}))
    code, out = run_json(capsys, ["basis", str(quintic), "--n", "18"])
    assert code == 0 and '"relaxed_j": true' in out
    payload = json.loads(out)
    assert payload["c"] == len(payload["elements"]) == 19
    for el in payload["elements"]:
        assert form_str(parse_form(el["form"], 2)) == el["form"]


def test_green_command(capsys, power_cfg, half_cfg):
    code, out = run_json(capsys, ["green", power_cfg, "--n", "1",
                                  "--points", "1,1;-1,1", "--place", "inf",
                                  "--basis", "monomial"])
    assert code == 0
    payload = json.loads(out)
    assert payload["green"]["total"] == pytest.approx(-0.5 * math.log(2), abs=1e-9)
    # (0:1) and (0:2) are one point: the Green value is +infinity and the
    # witness -infinity, which the tol check passes over
    code, out = run_json(capsys, ["green", half_cfg, "--n", "2", "--points", "0,1;1,1;0,2",
                                  "--place", "p=2", "--witness", "--tol", "1e-300"])
    assert code == 0
    payload = json.loads(out)
    assert payload["green"] == {"plus_infinity": True}
    assert payload["witness_logd"] == {"minus_infinity": True}


def test_green_rejects_points_off_the_hypersurface(capsys, tmp_path):
    path = tmp_path / "conic.json"
    path.write_text(json.dumps({"N": 2, "d": 2, "forms": ["x0^2", "x1^2", "x2^2"],
                                "hypersurface": "x0*x2 - x1^2"}))
    argv = ["green", str(path), "--n", "1", "--place", "inf", "--points"]
    code, out = run_json(capsys, argv + ["1,0,0;0,0,1;1,1,1"])
    assert code == 0 and json.loads(out)["c"] == 3
    for extra in ([], ["--witness"]):
        assert run(argv + ["1,0,0;0,0,1;1,2,3"] + extra) == 1  # 1*3 - 2^2 != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lift 2 does not lie on the hypersurface\n"


def test_fekete_deterministic_output(capsys, power_cfg):
    argv = ["fekete", power_cfg, "--n", "2", "--budget", "1500", "--seed", "9",
            "--basis", "monomial"]
    code1, out1 = run_json(capsys, argv)
    code2, out2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)
    assert payload["witness_logd"] == pytest.approx(0.25 * math.log(3), abs=1e-4)


def test_adelic_report_files(capsys, tmp_path, half_cfg):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code = run(["adelic-report", half_cfg, "--n", "4,8", "--budget", "800",
                "--seed", "7", "--out", str(out_json), "--csv", str(out_csv)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == "greenfield-report/1"
    assert [e["n"] for e in payload["entries"]] == [4, 8]
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * len(payload["places"])


def test_multiples_command(capsys):
    code, out = run_json(capsys, ["multiples", "--curve", "0,-2",
                                  "--point", "3,5", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [1, 2, 3]
    assert payload["bound"] == 7


def test_lehmer_command(capsys, tmp_path):
    csv_path = tmp_path / "scan.csv"
    code, out = run_json(capsys, ["lehmer-scan", "--curve", "0,-2",
                                  "--point", "3,5", "--depths", "0,1",
                                  "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["min_shape"] > 0
    assert csv_path.exists()


def test_exit_codes(capsys, tmp_path, power_cfg, half_cfg):
    assert run(["resultant", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["resultant", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"N": 1, "d": 3, "forms": ["x0^2", "x1^2"]}))
    assert run(["resultant", str(wrong)]) == 2
    wrong.write_text(json.dumps({"N": 1, "d": 2, "forms": ["x0^2", "x1^2"],
                                 "hypersurface": 7}))
    assert run(["resultant", str(wrong)]) == 2
    # the angle chart's unit-circle points do not lie on a hypersurface
    wrong.write_text(json.dumps({"N": 1, "d": 2, "forms": ["x0^2", "x1^2"],
                                 "hypersurface": "x0 - x1"}))
    assert run(["fekete", str(wrong), "--n", "2", "--budget", "50"]) == 1
    assert run(["selftest"]) == 2  # no such command
    assert run(["height", power_cfg, "--point", "0,0"]) == 1
    assert run(["escape", power_cfg, "--point", "1,1", "--place", "q=3"]) == 2
    assert run(["escape", power_cfg, "--point", "1/0,1"]) == 2
    assert run(["escape", half_cfg, "--point", "3,1,5", "--place", "p=2"]) == 1
    # a tol below what the float path certifies fails instead of passing silently
    for argv in (["escape", power_cfg, "--point", "3/2,1"],
                 ["height", power_cfg, "--point", "3/2,1"],
                 ["green", half_cfg, "--n", "2", "--points", "0,1;1,1;2,1"],
                 ["green", half_cfg, "--n", "2", "--points", "0,1;1,1;2,1",
                  "--place", "p=2", "--witness"]):
        capsys.readouterr()
        assert run(argv + ["--tol", "1e-300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: error reached ") and err.count("\n") == 1
    assert run(["nonsense"]) == 2
    assert run(["resultant", str(tmp_path)]) == 2  # a directory
    capsys.readouterr()
    assert run(["adelic-report", half_cfg, "--n", "4,x"]) == 2
    assert capsys.readouterr().err.startswith("error: bad degree list '4,x'")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"N": 1, "d": 2, "forms": ["x0^2", "x1^2"], "note": "caf\xe9"}')
    assert run(["resultant", str(latin1)]) == 2
    assert run(["multiples", "--curve", "0,-2", "--point", "3", "--n", "2"]) == 2
    assert run(["lehmer-scan", "--curve", "0", "--point", "3,5"]) == 2
    for depths in (",", ""):  # an empty table has no minimum shape
        assert run(["lehmer-scan", "--curve", "0,-2", "--point", "3,5",
                    f"--depths={depths}"]) == 2
    # a coefficient that complex() rounds to 0.0 fails an internal check
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"N": 1, "d": 2,
                                "forms": ["x0^2 - x0*x1", f"1/{10**400}*x1^2"]}))
    capsys.readouterr()
    assert run(["escape", str(tiny), "--point", "1,1"]) == 1
    assert capsys.readouterr().err == \
        "error: orbit underflowed to zero at the archimedean place\n"


def test_coefficients_beyond_binary64_are_domain_errors(capsys, tmp_path):
    # every command that works at infinity converts the coefficients to
    # complex binary64 once; 10^400 has no such value
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"N": 1, "d": 2, "forms": [f"x0^2 + {10**400}*x1^2", "x1^2"]}))
    path = str(huge)
    for argv in (["escape", path, "--point", "1,1", "--place", "inf"],
                 ["height", path, "--point", "1,1"],
                 ["green", path, "--n", "2", "--points", "0,1;1,1;2,1", "--place", "inf"],
                 ["fekete", path, "--n", "2", "--budget", "50"]):
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: a coefficient lies outside the binary64 range\n"


def test_local_entries_follow_the_ledger_rule(capsys, half_cfg):
    # every local entry reports value = total(), error = arch_err and
    # exact = is_exact, the Weil block included
    code, out = run_json(capsys, ["height", half_cfg, "--point", "3/2,1"])
    assert code == 0
    payload = json.loads(out)
    for block in ("canonical", "weil"):
        for entry in payload[block]["local_profile"].values():
            assert entry["exact"] == (entry["error"] == 0.0)
    weil = payload["weil"]["local_profile"]
    assert weil["inf"]["exact"] is False
    assert weil["p=2"] == {"error": 0.0, "exact": True, "value": math.log(2)}
    assert payload["canonical"]["local_profile"]["p=3"]["exact"] is True
    for place, exact in (("inf", False), ("p=2", False), ("p=3", True)):
        code, out = run_json(capsys, ["escape", half_cfg, "--point", "3/2,1",
                                      "--place", place])
        assert code == 0 and json.loads(out)["exact"] is exact


def test_non_finite_tol_is_a_parse_error(capsys, tmp_path, power_cfg):
    for text in ("nan", "inf", "-inf", "0", "-1e-9"):
        cfg = tmp_path / f"tol_{text}.json"
        cfg.write_text(json.dumps({"N": 1, "d": 2, "forms": ["x0^2", "x1^2"],
                                   "tol": text}))
        assert run(["escape", str(cfg), "--point", "3,1"]) == 2
        for cmd in (["escape", power_cfg, "--point", "3,1"],
                    ["height", power_cfg, "--point", "3,1"],
                    ["lehmer-scan", "--curve", "0,-2", "--point", "3,5", "--depths", "0"]):
            assert run(cmd + [f"--tol={text}"]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_multiples_prints_determinants_beyond_the_str_limit(capsys):
    # the n = 12 determinant has more digits than Python's default
    # int-to-str limit (4300)
    limit = sys.get_int_max_str_digits()
    code, out = run_json(capsys, ["multiples", "--curve=-2,945/8",
                                  "--point=-9/2,6", "--n", "12"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    payload = json.loads(out)
    lattes = LattesSystem(EllipticCurve(-2, Fraction(945, 8)),
                          (Fraction(-9, 2), 6))
    res = multiples_search(lattes.system, lattes.orbit(payload["bound"]), 12)
    assert payload["indices"] == res.indices
    sys.set_int_max_str_digits(0)
    try:
        printed = Fraction(payload["determinant"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == res.determinant
    assert len(payload["determinant"]) > 4300


def test_negative_values_parse_after_a_space(capsys, half_cfg):
    # "--point -1,1" begins with the option prefix; it must parse like
    # "--point=-1,1" rather than as an unknown option
    curve = ("--curve", "-2,945/8", "--point", "-9/2,6")
    cases = [
        (["escape", half_cfg, "--place", "p=2"], ("--point", "-1,1")),
        (["height", half_cfg], ("--point", "-3/2,1")),
        (["multiples", "--n", "3"], curve),
        (["lehmer-scan", "--depths", "0,1"], curve),
    ]
    for head, pairs in cases:
        spaced = head + list(pairs)
        attached = head + [f"{flag}={value}" for flag, value in zip(pairs[::2], pairs[1::2])]
        code, out = run_json(capsys, spaced)
        assert code == 0, spaced
        assert run_json(capsys, attached) == (0, out)


def test_fekete_rejects_small_n_before_searching(capsys, monkeypatch, half_cfg):
    def no_search(*args, **kwargs):
        raise AssertionError("fekete_search ran for n < 2")
    monkeypatch.setattr(cli, "fekete_search", no_search)
    assert run(["fekete", half_cfg, "--n", "1"]) == 1
    assert capsys.readouterr().err == "error: envelope needs n >= 2\n"


def test_negative_degree_is_a_domain_error(capsys, half_cfg):
    # section_dim rejects n < 1 for every caller, before math.comb sees
    # a negative argument
    for argv in (["basis", half_cfg, "--n=-2"],
                 ["green", half_cfg, "--n=-2", "--points=2,1;3,1"],
                 ["multiples", "--curve", "0,-2", "--point", "3,5", "--n=-2"],
                 ["adelic-report", half_cfg, "--n=-2", "--budget", "10"]):
        capsys.readouterr()
        assert run(argv) == 1, argv
        assert capsys.readouterr().err == "error: need n >= 1\n"


def test_budget_below_c_is_a_domain_error(capsys):
    # the Fekete search's start alone evaluates at least c(n) angles
    for argv, c in ((["fekete", HALF, "--n", "8", "--budget", "5"], 9),
                    (["fekete", HALF, "--n", "2", "--budget", "1"], 3),
                    (["adelic-report", HALF, "--n", "2", "--budget", "1"], 3)):
        capsys.readouterr()
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        budget = argv[-1]
        assert err == f"error: budget {budget} is below c(n) = {c}\n"


def test_cli_runs_without_numpy():
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from greenfield.cli import run\n"
              f"sys.exit(run(['adelic-report', {HALF!r}, '--n', '4', '--budget', '300']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"][0]["n"] == 4


def test_empty_integer_lists_are_parse_errors(capsys, half_cfg):
    for value in (",", ""):
        for argv, name in (
                (["adelic-report", half_cfg, f"--n={value}", "--budget", "10"], "degree"),
                (["lehmer-scan", "--curve", "0,-2", "--point", "3,5", f"--depths={value}"],
                 "depth")):
            capsys.readouterr()
            assert run(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: empty {name} list {value!r}\n"


def test_torsion_input_rejected_with_code_1(capsys):
    code = run(["multiples", "--curve", "0,1", "--point", "2,3", "--n", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "torsion" in err


def test_config_validation(tmp_path):
    cfg = SystemConfig.from_dict(
        {"N": 1, "d": 2, "forms": ["x0^2", "x1^2"]})
    system = cfg.build()
    assert system.degree == 2
    with pytest.raises(Exception):
        SystemConfig.from_dict({"N": 2, "d": 2, "forms": ["x0^2", "x1^2"]})


@pytest.mark.parametrize("field, value", [
    ("N", 1.5), ("N", True), ("N", "1"), ("d", 2.9), ("d", False), ("d", "2"),
    ("seed", True), ("seed", 3.0), ("seed", "3"), ("tol", True), ("tol", "1e-9"),
    ("tol", 10**400),
], ids=lambda v: v if isinstance(v, str) else repr(v)[:8])
def test_config_fields_are_not_coerced(tmp_path, capsys, field, value):
    """N, d and seed must be ints and tol a real number; nothing is
    truncated or parsed out of a string."""
    data = {"N": 1, "d": 2, "forms": ["x0^2 + 1/2*x1^2", "x1^2"], field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    for argv in (["resultant", str(path)], ["fekete", str(path), "--n", "2", "--budget", "10"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err


def test_toml_config(tmp_path, capsys):
    pytest.importorskip("tomllib")
    path = tmp_path / "power.toml"
    path.write_text('N = 1\nd = 2\nforms = ["x0^2", "x1^2"]\n')
    code = run(["resultant", str(path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_toml_without_a_parser_is_a_parse_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "power.toml"
    path.write_text('N = 1\nd = 2\nforms = ["x0^2", "x1^2"]\n')
    monkeypatch.setitem(sys.modules, "tomllib", None)  # None in sys.modules: ImportError
    monkeypatch.setitem(sys.modules, "tomli", None)
    assert run(["resultant", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "TOML support needs Python 3.11+ or tomli" in err


def test_toml_falls_back_to_tomli(tmp_path, capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    path = tmp_path / "power.toml"
    path.write_text('N = 1\nd = 2\nforms = ["x0^2", "x1^2"]\n')
    monkeypatch.setitem(sys.modules, "tomllib", None)
    monkeypatch.setitem(sys.modules, "tomli", tomllib)
    assert run(["resultant", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


_LONG = "1" + "0" * 5000  # longer than Python's 4,300-digit int conversion limit


# name -> (system file suffix and text, or None; argv before the file)
_LONG_INPUTS = {
    "json_tol": (".json", '{"N": 1, "d": 2, "forms": ["x0^2", "x1^2"], "tol": %s}' % _LONG,
                 ["resultant"]),
    "toml_tol": (".toml", 'N = 1\nd = 2\nforms = ["x0^2", "x1^2"]\ntol = %s\n' % _LONG,
                 ["resultant"]),
    "coefficient": (".json", json.dumps({"N": 1, "d": 2,
                                         "forms": [f"x0^2 + {_LONG}*x1^2", "x1^2"]}),
                    ["resultant"]),
    "exponent": (".json", json.dumps({"N": 1, "d": 2, "forms": [f"x0^{_LONG}", "x1^2"]}),
                 ["resultant"]),
    "variable": (".json", json.dumps({"N": 1, "d": 2, "forms": [f"x{_LONG}^2", "x1^2"]}),
                 ["resultant"]),
    "escape_point": (None, None, ["escape", HALF, "--point", f"{_LONG},1"]),
    "lehmer_curve": (None, None, ["lehmer-scan", "--curve", f"{_LONG},1", "--point", "3,5"]),
}


@pytest.mark.parametrize("name", list(_LONG_INPUTS))
def test_integer_literals_beyond_the_digit_limit_are_parse_errors(tmp_path, capsys, name):
    suffix, text, argv = _LONG_INPUTS[name]
    if suffix == ".toml":
        pytest.importorskip("tomllib")
    if text is not None:
        path = tmp_path / f"{name}{suffix}"
        path.write_text(text)
        argv = argv + [str(path)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_green_reads_the_file_convention_unless_overridden(capsys, tmp_path):
    from greenfield.basis import special_basis
    from greenfield.green import green_value
    from greenfield.pffield import Place
    data = {"N": 1, "d": 2, "forms": ["2*x0^2 + x1^2", "x1^2"], "r_convention": "paper"}
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(data))
    system = SystemConfig.from_dict(data).build()
    fam = special_basis(system, 2)
    points = [cli._parse_point(t) for t in ("2,1", "3,1", "1/2,1")]
    for place in ("inf", "p=2"):
        argv = ["green", str(path), "--n", "2", "--points", "2,1;3,1;1/2,1", "--place", place]
        for extra, convention in (([], "paper"), (["--convention", "invariant"], "invariant")):
            code, out = run_json(capsys, argv + extra)
            assert code == 0
            payload = json.loads(out)
            assert payload["convention"] == convention
            want = green_value(system, fam, points, Place.parse(place), convention)
            assert payload["green"] == cli._logmag_json(want)
    # the two conventions differ where |Res|_v != 1
    assert green_value(system, fam, points, Place.prime(2), "paper").total() != \
        green_value(system, fam, points, Place.prime(2), "invariant").total()


def test_composite_place_is_a_parse_error(capsys, power_cfg):
    assert run(["escape", power_cfg, "--point", "1,1", "--place", "p=6"]) == 2
    capsys.readouterr()


def test_adelic_report_byte_identical(tmp_path, half_cfg):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = run(["adelic-report", half_cfg, "--n", "2,4", "--budget", "400",
                    "--seed", "3", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Fuzzing: argv from a small grammar of commands, options and system files

_GOOD_SYSTEMS = [
    {"N": 1, "d": 2, "forms": ["x0^2", "x1^2"]},
    {"N": 1, "d": 2, "forms": ["x0^2 + 1/2*x1^2", "x1^2"], "tol": 1e-6, "seed": 3},
    {"N": 1, "d": 3, "forms": ["x0^3 - 5/3*x0*x1^2 + 2*x1^3", "7*x1^3"],
     "r_convention": "paper"},
    {"N": 2, "d": 2, "forms": ["x0^2", "x1^2", "x2^2"], "hypersurface": "x0*x2 - x1^2"},
]
_WRONG_VALUES = [None, 7, -1, 0, 2.5, True, "", "x", "x0^2", "x0 -", "nan",
                 [], [1], ["x0^2"], [1, 2], {}, {"a": 1}]
_BAD_FILES = ["{not json", "[1, 2]", "3", '"x"', "", "null"]


def _pick(draw, good, bad):
    """A good value four times in five, else a malformed one."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))


@st.composite
def _system_texts(draw):
    kind = draw(st.sampled_from(["good", "good", "wrong", "wrong", "missing", "raw"]))
    if kind == "raw":
        return draw(st.sampled_from(_BAD_FILES))
    data = dict(draw(st.sampled_from(_GOOD_SYSTEMS)))
    key = draw(st.sampled_from(["N", "d", "forms", "hypersurface", "r_convention",
                                "tol", "seed"]))
    if kind == "wrong":
        data[key] = draw(st.sampled_from(_WRONG_VALUES))
    elif kind == "missing":
        data.pop(key, None)
    return json.dumps(data)


_POINTS = (["2,1", "1/2,1", "3/2,1", "-1,1", "1,0", "0,0", "1,1,1", "2,1,3"],
           ["3,1,5", "1/0,1", "a,1", "", ",", "1e3,1", "1"])
_TOLS = (["1e-9", "1e-6", "0.5"], ["1e-300", "0", "-1", "nan", "inf", "abc"])
_N = (["1", "2", "3"], ["0", "-1", "-2", "-7", "x"])
_BUDGETS = (["1", "10", "50"], ["0", "-5", "x"])  # the defaults are far too slow here
_SEEDS = (["0", "7"], ["x"])
_CURVE = (["0,-2", "-2,945/8", "0,1"], ["0,0", "1", "a,b"])
_CURVE_POINT = (["3,5", "-9/2,6", "2,3", "-1,0"], ["0,0", "3", "1,1"])
# command -> [(flag, (good values, malformed values), how often it is given)];
# a flag without values is a switch, and --points takes a list of _POINTS
_GRAMMAR = {
    "resultant": [],
    "height": [("--point", _POINTS, "usually"), ("--tol", _TOLS, "maybe")],
    "escape": [("--point", _POINTS, "usually"), ("--tol", _TOLS, "maybe"),
               ("--place", (["inf", "p=2", "p=3", "p=7"],
                            ["p=6", "q=3", "p=x", "p=1", "p=0", ""]), "maybe")],
    "basis": [("--n", _N, "usually")],
    "green": [("--n", _N, "usually"), ("--points", None, "usually"),
              ("--tol", _TOLS, "maybe"),
              ("--place", (["inf", "p=2", "p=3"], ["p=4"]), "maybe"),
              ("--basis", (["special", "monomial"], ["bogus"]), "maybe"),
              ("--convention", (["paper", "invariant"], ["bogus"]), "maybe"),
              ("--witness", None, "maybe")],
    "fekete": [("--n", _N, "usually"), ("--budget", _BUDGETS, "always"),
               ("--seed", _SEEDS, "maybe"),
               ("--basis", (["special", "monomial"], ["bogus"]), "maybe")],
    "adelic-report": [("--n", (["2", "2,3", "3,,2"], ["1,2", "0", "-2", "x", ""]), "usually"),
                      ("--budget", _BUDGETS, "always"), ("--tol", _TOLS, "maybe"),
                      ("--seed", _SEEDS, "maybe")],
    "multiples": [("--curve", _CURVE, "usually"), ("--point", _CURVE_POINT, "usually"),
                  ("--n", _N, "usually")],
    "lehmer-scan": [("--curve", _CURVE, "usually"), ("--point", _CURVE_POINT, "usually"),
                    ("--depths", (["0", "0,1", "1"], ["4", "-1", "x", ",", ""]), "maybe"),
                    ("--tol", _TOLS, "maybe")],
    "selftest": [],
    "nonsense": [],
}
_SYSTEM_COMMANDS = {"resultant", "height", "escape", "basis", "green", "fekete",
                    "adelic-report"}


@st.composite
def _argvs(draw, system_path, missing_path):
    cmd = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [cmd]
    if cmd in _SYSTEM_COMMANDS:
        argv.append(missing_path if draw(st.integers(0, 9)) == 0 else system_path)
    for flag, values, how in _GRAMMAR[cmd]:
        # "usually" leaves a required option out one time in ten: a parse error
        if how == "usually" and draw(st.integers(0, 9)) == 0:
            continue
        if how == "maybe" and not draw(st.booleans()):
            continue
        # "--flag=value", so that values like "-1,1" are not read as options
        if flag == "--points":
            argv.append(flag + "=" + ";".join(_pick(draw, *_POINTS)
                                              for _ in range(draw(st.integers(0, 5)))))
        else:
            argv.append(flag if values is None else flag + "=" + _pick(draw, *values))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_fuzz_exit_codes(fuzz_dir):
    system_path = str(fuzz_dir / "system.json")
    missing_path = str(fuzz_dir / "missing.json")

    @settings(max_examples=500, deadline=None)
    @given(_system_texts(), _argvs(system_path, missing_path))
    def check(text, argv):
        with open(system_path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 1, 2), (text, argv)
        # every command but resultant prints strict JSON: no NaN or Infinity
        if code == 0 and argv[0] != "resultant":
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    check()

