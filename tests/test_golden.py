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
# all 20 cubic monomials in every form: a 220 x 220 Macaulay matrix
DENSE = str(GOLDEN / "dense_d3n3.json")
# a (3,3) morphism whose identity Macaulay minor is singular
SPARSE = str(GOLDEN / "sparse_d3n3.json")
# three terms in x0's form, so the compensated sum differs from plain +
CUBIC = str(GOLDEN / "cubic.json")
CURVE = ["--curve", "0,-2", "--point", "3,5"]
# x(40P) has 12,927 bits, inside the lattes benchmark's height band; at
# n = 12 the determinant prints with about 14,000 characters
BAND_CURVE = ["--curve", "9/5,-8993/540", "--point", "7/3,1/2"]

# name -> (argv, expected exit code); "{csv}" is replaced by a CSV path
CASES = {
    "resultant_half": (["resultant", HALF], 0),
    "resultant_degenerate_p2": (["resultant", DEGENERATE], 0),
    "resultant_dense_d3n3": (["resultant", DENSE], 0),
    "resultant_sparse_d3n3": (["resultant", SPARSE], 0),
    "height": (["height", HALF, "--point", "3/2,1"], 0),
    "escape_inf": (["escape", HALF, "--point", "3/2,1", "--place", "inf"], 0),
    "escape_inf_cubic": (["escape", CUBIC, "--point", "5/3,1", "--place", "inf"], 0),
    "escape_p2_bad": (["escape", HALF, "--point", "3/2,1", "--place", "p=2"], 0),
    "escape_p3_good": (["escape", HALF, "--point", "3/2,1", "--place", "p=3"], 0),
    "basis": (["basis", HALF, "--n", "8"], 0),
    "basis_p2": (["basis", DEGENERATE, "--n", "8"], 0),
    "green_p2": (["green", HALF, "--n", "4", "--points", "0,1;1,1;2,1;3,1;1,2",
                  "--place", "p=2"], 0),
    "green_witness_p2": (["green", HALF, "--n", "4", "--points", "0,1;1,1;2,1;3,1;1,2",
                          "--place", "p=2", "--witness"], 0),
    "fekete": (["fekete", HALF, "--n", "8", "--budget", "600"], 0),
    "fekete_cubic": (["fekete", CUBIC, "--n", "8", "--budget", "600"], 0),
    "adelic_report": (["adelic-report", HALF, "--n", "4,8", "--budget", "300",
                       "--csv", "{csv}"], 0),
    "multiples": (["multiples", *CURVE, "--n", "4"], 0),
    "multiples_n12": (["multiples", *BAND_CURVE, "--n", "12"], 0),
    "lehmer_scan": (["lehmer-scan", *CURVE, "--depths", "0,1,2", "--csv", "{csv}"], 0),
    "lehmer_scan_d3": (["lehmer-scan", *CURVE, "--depths", "0,1,2,3", "--csv", "{csv}"], 0),
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


def test_every_golden_file_has_a_case():
    """A renamed or removed case must not leave an output nothing compares."""
    stale = sorted(f.name for f in GOLDEN.iterdir()
                   if f.suffix in (".out", ".csv") and f.stem not in CASES)
    assert stale == []


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
