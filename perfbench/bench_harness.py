"""Run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload w8a-train --seed 1 --seconds 30 --trace 0

Reps run back to back (one client, one process, no extra threads) until
`--seconds` have passed and at least MIN_REPS reps are done; each metric
is the median over reps.  With ``--trace 0`` every rep is untraced and
the end-to-end metrics are reported, timed on the probe-rescaled clock
of bench_clock.  With ``--trace 1`` untraced and
traced reps alternate: the traced ones give the per-layer metrics, and
the pair gives the tracing overhead.  The last line of standard output is
one JSON object: correct, attempted, failed (solver runs; a run fails when
it raises or fails an output check) and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import bench_inputs as inputs
import bench_workloads as workloads
from bench_clock import Clock, Probe
from bench_spans import LAYER_UNITS, NullTracer, Tracer, layer_table, read_spans

ROOT = Path(__file__).resolve().parents[1]
MIN_REPS = {0: 3, 1: 4}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "iters_per_s": "1/s",
    "time_to_target_s": "s",
    "final_gap_digits": "digits",
    "peak_rss_mb": "MB",
}


def environment():
    """What the timings depend on besides the code under test."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    src = ROOT / "src" / "proxsplit"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "proxsplit_threads": os.environ.get("PROXSPLIT_THREADS"),
        "src_lines": lines,
    }


def _median(values):
    return float(statistics.median(values))


def rep_timings(reps, nominal):
    """Per-rep wall_s, setup_s, iters_per_s and time_to_target_s, in
    seconds at the nominal probe speed or, with nominal False, as read."""
    out = [r.timings(r.clock.nominal if nominal else float) for r in reps]
    return {k: [m[k] for m in out] for k in out[0]}


def end_to_end(timed, prep, peak_rss_mb):
    metrics = {k: _median(v) for k, v in rep_timings(timed, nominal=True).items()}
    metrics["final_gap_digits"] = _median(r.final_gap_digits(prep.f_star) for r in timed)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(plain, timed, tracer, prep, span_path):
    """Per-layer table from the written span file plus the trace-derived
    counts; plain and timed are the untraced and traced reps that finished."""
    tracer.write(span_path)
    table = layer_table(read_spans(span_path))
    dr_runs = [r.runs[0] for r in timed if r.runs[0].name == "dr"]
    table["dr.iters_to_target"] = _median(r.hit or 0 for r in dr_runs) if dr_runs else 0
    table["dr.final_gap"] = _median(r.gaps(prep.f_star)[0] for r in timed) if dr_runs else 0.0
    table["trace.records"] = _median(sum(len(s.trace.records) for s in r.runs) for r in timed)
    base = _median(rep_timings(plain, nominal=True)["wall_s"])
    table["trace_overhead_pct"] = 100.0 * (_median(rep_timings(timed, nominal=True)["wall_s"]) - base) / base
    return table


def run_workload(name, seed, seconds, trace, smoke=False, work_root=None):
    """Prepare, run and check one workload; returns (result, record)."""
    spec = (workloads.SMOKE_SPECS if smoke else workloads.SPECS)[name]
    work_root = Path(work_root or ROOT / ".perfbench_work")
    tag = "%s-s%d-t%d%s" % (name, seed, trace, "-smoke" if smoke else "")
    workdir = work_root / ("%s-%d" % (tag, os.getpid()))
    results = work_root / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        prep = workloads.prepare(spec, seed, str(workdir))
        probe = Probe()
        tracer = Tracer()
        plain, traced = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(plain) + len(traced) < MIN_REPS[trace]:
            if trace and len(plain) > len(traced):
                tracer.run_id = len(traced)
                with tracer.installed():
                    traced.append(workloads.run_rep(prep, tracer, Clock(probe), str(workdir)))
            else:
                plain.append(workloads.run_rep(prep, NullTracer(), Clock(probe), str(workdir)))
                if len(plain) == 1:
                    # one run per process, as `proxsplit train` does; later
                    # reps land on a heap shaped by earlier ones
                    peak_rss_mb = _peak_rss_mb()
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    runs = [run for rep in reps for run in rep.runs]
    # every rep of a run replays the same seeded computation: traced or
    # not, the final w must be bitwise the same
    shas = [None if run.w is None else inputs.array_sha256(run.w) for run in runs]
    per_rep = len(reps[0].runs)
    first = {}
    for i, run in enumerate(runs):
        if shas[i] is not None and first.setdefault(i % per_rep, shas[i]) != shas[i]:
            run.failures.append("%s: w differs from the first rep's" % run.name)
    failed = sum(not run.ok for run in runs)
    plain = [r for r in plain if r.timed]
    traced = [r for r in traced if r.timed]
    if not plain or (trace and not traced):
        raise RuntimeError("no rep completed: %s" % "; ".join(runs[0].failures))

    if trace:
        metrics = per_layer(plain, traced, tracer, prep, str(results / (tag + "-spans.csv")))
        units = LAYER_UNITS
    else:
        metrics = end_to_end(plain, prep, peak_rss_mb)
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "environment": environment(),
        "inputs": prep.record,
        "spec": {k: getattr(spec, k) for k in spec.__dataclass_fields__ if k != "shape"},
        "reps": {
            "untraced": len(plain),
            "traced": len(traced),
            "measured_s": measured_s,
            "timings_as_read": rep_timings(plain, nominal=False),
            "timings_nominal": rep_timings(plain, nominal=True),
        },
        "w_sha256": {run.name: shas[i] for i, run in enumerate(runs[:per_rep])},
        "failures": sorted({f for run in runs for f in run.failures}),
        "result": result,
    }
    with open(results / (tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    return result, record


def print_report(record):
    result = record["result"]
    print("workload %s seed %d trace %d: %d untraced + %d traced reps in %.1f s"
          % (record["workload"], record["seed"], record["trace"], record["reps"]["untraced"],
             record["reps"]["traced"], record["reps"]["measured_s"]))
    print("environment " + json.dumps(record["environment"]))
    print("inputs " + json.dumps(record["inputs"]))
    print("w sha256 " + json.dumps(record["w_sha256"]))
    for failure in record["failures"]:
        print("FAILED " + failure)
    for key, m in result["metrics"].items():
        print("  %-32s %16.6g %s" % (key, m["value"], m["unit"]))
    print("  %-32s %16.6g %s" % ("failed_frac", result["failed"] / result["attempted"], "ratio"))


def _run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in workloads.SPECS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_report(record)
    print(json.dumps(result))
    return 0
