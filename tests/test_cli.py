import json
import math
import sys
from fractions import Fraction

import pytest

from greenfield.cli import SystemConfig, run
from greenfield.experiments import EllipticCurve, LattesSystem, multiples_search


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


def test_basis_command_roundtrips(capsys, power_cfg):
    code, out = run_json(capsys, ["basis", power_cfg, "--n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 7
    assert len(payload["elements"]) == 7
    from greenfield.homopoly import parse_form, form_str
    for el in payload["elements"]:
        assert form_str(parse_form(el["form"], 2)) == el["form"]


def test_green_command(capsys, power_cfg):
    code, out = run_json(capsys, ["green", power_cfg, "--n", "1",
                                  "--points", "1,1;-1,1", "--place", "inf",
                                  "--basis", "monomial"])
    assert code == 0
    payload = json.loads(out)
    assert payload["green"]["total"] == pytest.approx(-0.5 * math.log(2), abs=1e-9)


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


def test_selftest(capsys):
    code, out = run_json(capsys, ["selftest"])
    assert code == 0
    assert "selftest: OK" in out


def test_exit_codes(capsys, tmp_path, power_cfg):
    assert run(["resultant", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["resultant", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"N": 1, "d": 3, "forms": ["x0^2", "x1^2"]}))
    assert run(["resultant", str(wrong)]) == 2
    assert run(["height", power_cfg, "--point", "0,0"]) == 1
    assert run(["escape", power_cfg, "--point", "1,1", "--place", "q=3"]) == 2
    assert run(["escape", power_cfg, "--point", "1/0,1"]) == 2
    assert run(["nonsense"]) == 2
    capsys.readouterr()


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


def test_toml_config(tmp_path, capsys):
    pytest.importorskip("tomllib")
    path = tmp_path / "power.toml"
    path.write_text('N = 1\nd = 2\nforms = ["x0^2", "x1^2"]\n')
    code = run(["resultant", str(path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_composite_place_is_a_parse_error(capsys, power_cfg):
    assert run(["escape", power_cfg, "--point", "1,1", "--place", "p=6"]) == 2
    capsys.readouterr()


def test_config_roundtrip():
    cfg = SystemConfig.from_dict({
        "N": 1, "d": 2, "forms": ["x0^2 + 1/2*x1^2", "x1^2"],
        "hypersurface": None, "r_convention": "paper",
    })
    again = SystemConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_adelic_report_byte_identical(tmp_path, half_cfg):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = run(["adelic-report", half_cfg, "--n", "2,4", "--budget", "400",
                    "--seed", "3", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
