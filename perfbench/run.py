"""greenfield benchmark: one seeded workload, measured in one process.

    python3 perfbench/run.py --workload {adelic,elimination,lattes} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from `src/`.
A run draws its inputs from the seed, runs every job once to validate
the inputs (the warm-up), then repeats passes over the fixed job list
until S seconds have gone by (at least three passes).  Each job's
output is checked after every pass.

--trace 0 prints the end-to-end metrics: the pass time and the
per-command totals (each job counted at its fastest pass; see
README.md), fresh-interpreter import time, peak RSS and the mean
certified bracket width.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object; the lines before it
name every metric with its unit, and `perfbench/out/<workload>/` keeps
the full report and the spans of the last traced pass.
"""

import argparse
import gc
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
MIN_PASSES = 3


def pin_environment():
    """One BLAS thread and no greenfield thread pool (two threads
    measured slower than one), for this process and its children."""
    os.environ.update(PINNED)
    os.environ.pop("GREENFIELD_THREADS", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def measure_setup(samples: int) -> list[float]:
    """Wall time of `import greenfield.cli` in a fresh interpreter, which
    every CLI invocation pays.  One unmeasured import first writes the
    bytecode cache."""
    cmd = [sys.executable, "-c", "import greenfield.cli"]
    subprocess.run(cmd, cwd=ROOT, check=True)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def metadata() -> dict:
    import numpy
    import sympy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "pinned_env": PINNED,
    }


def run_pass(units, rec=None):
    """Run every job once.  Returns (wall seconds, outputs, job seconds);
    an output is the exception when the job raised.  Each job starts with
    sympy's expression cache empty, as a fresh CLI invocation does;
    otherwise later passes reuse the expressions of earlier ones."""
    from sympy.core.cache import clear_cache
    gc.collect()
    outs, secs = {}, {}
    t_pass = time.perf_counter()
    for unit in units:
        for job in unit.jobs:
            clear_cache()
            if rec is not None:
                rec.trace_id += 1
                span = rec.open(rec.name_id(f"job.{job.cmd}"))
            t0 = time.perf_counter()
            try:
                outs[job.name] = job.thunk()
            except Exception as exc:  # every failure is counted, none ends the run
                outs[job.name] = exc
            secs[job.name] = time.perf_counter() - t0
            if rec is not None:
                rec.close(span)
    return time.perf_counter() - t_pass, outs, secs


def evaluate(units, outs, digest):
    """Check one pass: ({job: [problems]}, exact-field digest, brackets)."""
    problems, exact, brackets = {}, [], []
    for unit in units:
        names = [j.name for j in unit.jobs]
        try:
            probs = unit.check(outs)
            exact.append(unit.exact(outs))
            brackets.extend(unit.brackets(outs))
        except Exception as exc:
            probs = {n: [f"output could not be checked: {exc!r}"] for n in names}
        for n in names:
            raised = outs[n]
            problems[n] = [f"raised {raised!r}"] if isinstance(raised, Exception) else probs.get(n, [])
    return problems, digest(exact), brackets


def prepare(W, workload, seed, workdir):
    """Draw valid units for every stratum.  Running a draw's jobs
    validates it and warms the process; a draw with a unit that violates
    a documented precondition is replaced by the next draw."""
    units, discarded = [], []
    for stream in W.streams(workload, seed, workdir):
        for draw in stream:
            _, outs, _ = run_pass(draw)
            try:
                for cand in draw:
                    cand.discard(outs)
            except W.Discard as why:
                discarded.append(str(why))
                continue
            units.extend(draw)
            break
        else:
            raise RuntimeError(f"no valid input in a stratum of {workload} for seed {seed}")
    return units, discarded


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "greenfield" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"error: {SRC / 'greenfield'} or BENCHMARK.json not found; "
                         "run from a full checkout\n")
        return 2
    pin_environment()
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    import tracer
    import workloads as W
    if args.workload not in W.WORKLOADS:
        sys.stderr.write(f"error: workload must be one of {', '.join(W.WORKLOADS)}\n")
        return 2
    workdir = OUT / args.workload
    shutil.rmtree(workdir / "systems", ignore_errors=True)
    units, discarded = prepare(W, args.workload, args.seed, workdir / "systems")
    jobs = [j for u in units for j in u.jobs]
    cmd1, cmd2 = W.COMMANDS[args.workload]

    plain, traced, layer_runs = [], [], []
    last_rec = None
    t_start = time.perf_counter()

    def more_passes():
        if time.perf_counter() - t_start < args.seconds:
            return True
        return not traced if args.trace else len(plain) < MIN_PASSES

    while more_passes():
        plain.append(run_pass(units))
        if args.trace:
            rec = tracer.SpanRecorder()
            restore = tracer.install(rec)
            try:
                traced.append(run_pass(units, rec))
            finally:
                restore()
            layer_runs.append(tracer.layer_metrics(rec))
            last_rec = rec

    attempted = failed = 0
    digests, brackets, problems = [], None, {}
    for _, outs, _ in plain + traced:
        probs, dig, br = evaluate(units, outs, W.digest)
        digests.append(dig)
        brackets = br if brackets is None else brackets
        attempted += len(probs)
        bad = {n: p for n, p in probs.items() if p}
        failed += len(bad)
        problems.update(bad)
    if len(set(digests)) > 1:
        failed += sum(1 for d in digests if d != digests[0])
        problems["(all)"] = ["exact outputs differ between passes"]

    walls = [p[0] for p in plain]

    def fastest(passes, cmd=None):
        """Sum over jobs of each job's fastest time in the given passes."""
        return sum(min(p[2][j.name] for p in passes) for j in jobs
                   if cmd is None or j.cmd == cmd)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": metadata(),
        "inputs": [j.name for j in jobs], "discarded": discarded,
        "pass_walls": walls, "traced_walls": [p[0] for p in traced],
        "job_s": {j.name: [p[2][j.name] for p in plain] for j in jobs},
        "setup_samples": setup, "digests": digests, "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_of = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    rows = []  # (name, value, unit, note) for the human-readable table
    if args.trace:
        metrics = {}
        for key in layer_runs[0]:
            metrics[key] = statistics.median_low(run[key] for run in layer_runs)
        metrics["trace.overhead"] = fastest(traced) / fastest(plain) - 1
        rows = [(k, v, units_of[k], "") for k, v in metrics.items()]
        report["layer_runs"] = layer_runs
        spans_path = workdir / "spans.tsv.gz"
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            last_rec.write_tsv(fh)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": fastest(plain),
            "cmd1_s": fastest(plain, cmd1),
            "cmd2_s": fastest(plain, cmd2),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bracket_width": statistics.fmean(brackets) if brackets else 0.0,  # 0: all checks failed
        }
        rows = [
            ("wall_s", metrics["wall_s"], "s", f"fastest of {len(walls)} passes, per job"),
            (f"cmd_s.{cmd1}", metrics["cmd1_s"], "s", "reported as cmd1_s"),
            (f"cmd_s.{cmd2}", metrics["cmd2_s"], "s", "reported as cmd2_s"),
            ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} imports"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", ""),
            ("failed_ratio", failed / attempted, "1", f"{failed}/{attempted} jobs"),
            ("bracket_width", metrics["bracket_width"], "nat", f"mean of {len(brackets or [])}"),
        ]
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(metrics) ^ set(units_of))}")
    report["metrics"] = metrics
    report_path = workdir / f"report-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"greenfield benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} jobs/pass={len(jobs)} passes={len(plain)}+{len(traced)} traced")
    print("meta: " + " ".join(f"{k}={v}" for k, v in report["meta"].items() if k != "pinned_env"))
    if discarded:
        print(f"discarded inputs: {'; '.join(discarded)}")
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"exact-field digest: {digests[0]}"
          + ("" if len(set(digests)) == 1 else " (differs between passes)"))
    for name, probs in problems.items():
        print(f"FAILED {name}: {'; '.join(probs)}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
