"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from greenfield.errors import InternalCheckError  # noqa: E402
from greenfield.homopoly import parse_map  # noqa: E402


def _first_units(workload, seed, workdir):
    return [u for stream in W.streams(workload, seed, workdir) for u in next(stream)]


def _fingerprint(unit):
    if isinstance(unit, W.LattesCurve):
        return (unit.a, unit.b, unit.x0, unit.y0)
    paths = unit.paths if isinstance(unit, W.DenseMap) else (unit.path,)
    return tuple(Path(p).read_text() for p in paths)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generator_is_determined_by_the_seed(workload, tmp_path):
    a = [_fingerprint(u) for u in _first_units(workload, 5, tmp_path / "a")]
    b = [_fingerprint(u) for u in _first_units(workload, 5, tmp_path / "b")]
    c = [_fingerprint(u) for u in _first_units(workload, 6, tmp_path / "c")]
    assert a == b
    assert a != c


def test_self_time_subtracts_nested_children():
    rec = tracer.SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, root)
    rec.add("a.inner", 2.0, 3.0, a)
    rec.add("b", 5.0, 9.0, root)
    assert rec.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_count_nested_spans_once():
    rec = tracer.SpanRecorder()
    outer = rec.add("homopoly.iterate", 0.0, 4.0)
    rec.add("homopoly.iterate", 1.0, 2.0, outer)
    rec.add("homopoly.compose", 2.0, 3.0, outer)
    m = tracer.layer_metrics(rec)
    assert m["homopoly.iterate_s"] == 4.0


def _dense_unit(tmp_path):
    pm = parse_map(["x0^2 + 3*x0*x1 - x1^2", "2*x0^2 - x1^2"])
    lam = Fraction(3, 2)
    paths = (W.write_system(tmp_path / "F.json", pm),
             W.write_system(tmp_path / "lamF.json", pm.scale(lam)))
    return W.DenseMap("t", pm, lam, paths)


def test_resultant_off_by_one_counts_as_failed(tmp_path):
    unit = _dense_unit(tmp_path)
    _, outs, _ = run.run_pass([unit])
    problems, _, _ = run.evaluate([unit], outs, W.digest)
    assert not any(problems.values())
    bad = dict(outs)
    bad["t/lamF"] = str(Fraction(bad["t/lamF"].strip()) + 1) + "\n"
    problems, _, _ = run.evaluate([unit], bad, W.digest)
    assert problems["t/lamF"] and not problems["t/F"]


def test_a_job_that_raises_counts_as_failed(tmp_path):
    unit = _dense_unit(tmp_path)

    def broken():
        raise InternalCheckError("escaped the CLI")
    unit.jobs[0].thunk = broken
    _, outs, _ = run.run_pass([unit])
    problems, _, _ = run.evaluate([unit], outs, W.digest)
    assert "InternalCheckError" in problems["t/F"][0]
    assert problems["t/lamF"]  # its check needs Res(F)


def test_tracing_wraps_every_namespace_and_restores(power_map):
    import greenfield.dynsys as dynsys
    import greenfield.heights as heights
    from greenfield.homopoly import ProjPoint
    before = (dynsys.escape_rate, heights.escape_rate)
    rec = tracer.SpanRecorder()
    restore = tracer.install(rec)
    try:
        heights.canonical_height(power_map, ProjPoint.exact([3, 1]), 1e-9)
    finally:
        restore()
    assert (dynsys.escape_rate, heights.escape_rate) == before
    names = {rec.names[i] for i in rec.name}
    assert "dynsys.escape_rate:arch" in names
    assert "homopoly.evaluate:numeric" in names
    assert tracer.layer_metrics(rec)["dynsys.escape_arch_calls"] >= 1


@pytest.fixture
def power_map():
    from greenfield.dynsys import DynSystem
    return DynSystem(parse_map(["x0^2", "x1^2"]))
