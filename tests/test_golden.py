"""Golden CLI outputs: stdout bytes, exit code and any CSV written, for a
fixed set of commands, compared against the files in tests/golden/.

Regenerate the expected files (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from greenfield.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
HALF = str(GOLDEN / "half.json")
DEGENERATE = str(GOLDEN / "degenerate_p2.json")
CURVE = ["--curve", "0,-2", "--point", "3,5"]

# name -> (argv, expected exit code); "{csv}" is replaced by a CSV path
CASES = {
    "resultant_half": (["resultant", HALF], 0),
    "resultant_degenerate_p2": (["resultant", DEGENERATE], 0),
    "height": (["height", HALF, "--point", "3/2,1"], 0),
    "escape_inf": (["escape", HALF, "--point", "3/2,1", "--place", "inf"], 0),
    "escape_p2_bad": (["escape", HALF, "--point", "3/2,1", "--place", "p=2"], 0),
    "escape_p3_good": (["escape", HALF, "--point", "3/2,1", "--place", "p=3"], 0),
    "basis": (["basis", HALF, "--n", "8"], 0),
    "green_p2": (["green", HALF, "--n", "4", "--points", "0,1;1,1;2,1;3,1;1,2",
                  "--place", "p=2"], 0),
    "fekete": (["fekete", HALF, "--n", "8", "--budget", "600"], 0),
    "adelic_report": (["adelic-report", HALF, "--n", "4,8", "--budget", "300",
                       "--csv", "{csv}"], 0),
    "multiples": (["multiples", *CURVE, "--n", "4"], 0),
    "lehmer_scan": (["lehmer-scan", *CURVE, "--depths", "0,1,2"], 0),
}


def _run_case(name, tmp):
    argv, _ = CASES[name]
    csv_path = Path(tmp) / "out.csv"
    argv = [str(csv_path) if a == "{csv}" else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    csv = csv_path.read_bytes() if csv_path.exists() else None
    return code, buf.getvalue().encode(), csv


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, out, csv = _run_case(name, tmp_path)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    expected_csv = GOLDEN / f"{name}.csv"
    assert csv == (expected_csv.read_bytes() if expected_csv.exists() else None)


def regenerate():
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, csv = _run_case(name, tmp)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        if csv is not None:
            (GOLDEN / f"{name}.csv").write_bytes(csv)


if __name__ == "__main__":
    regenerate()
