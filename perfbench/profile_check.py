"""Cross-check of the traced layer times against cProfile.

    python3 perfbench/profile_check.py --workload w8a-train --seed 1

Runs one traced rep, then one rep under cProfile, on the same generated
inputs, and prints each layer's share of the rep from both, followed by
the functions with the most self time under cProfile.  cProfile charges
every Python call, so its shares lean towards call-heavy layers.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PROXSPLIT_THREADS", None)

# traced span name -> (module file, function) whose cumulative cProfile time matches it
LAYER_FUNCTIONS = {
    "data.parse": ("data.py", "load_libsvm"),
    "data.binarize": ("data.py", "binarize"),
    "sampling": ("sampling.py", "sample_without_replacement"),
    "prox.loss_prox": ("prox.py", "loss_prox"),
    "dr.block_solve": ("dr.py", "apply"),
    "model.objective": ("model.py", "objective"),
    "baselines.operator_norm": ("baselines.py", "operator_norm_sq"),
}


def main():
    import argparse
    import cProfile
    import pstats
    import shutil
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import bench_workloads as workloads
    from bench_clock import Clock
    from bench_spans import NullTracer, Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = (workloads.SMOKE_SPECS if args.smoke else workloads.SPECS)[args.workload]
    root = Path(__file__).resolve().parents[1] / ".perfbench_work"
    root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=root)
    try:
        prep = workloads.prepare(spec, args.seed, workdir)
        tracer = Tracer()
        with tracer.installed():
            traced = workloads.run_rep(prep, tracer, Clock(), workdir)
        profile = cProfile.Profile()
        profile.enable()
        profiled = workloads.run_rep(prep, NullTracer(), Clock(), workdir)
        profile.disable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = pstats.Stats(profile).stats
    total = sum(tt for (_, _, tt, _, _) in stats.values())

    def cumulative(module, func, callers=None):
        """Cumulative cProfile seconds of proxsplit/<module>:<func>, counting
        only calls made from the named caller functions when given."""
        out = 0.0
        for (path, _, name), (_, _, _, ct, by_caller) in stats.items():
            if name != func or not path.endswith(module):
                continue
            if callers is None:
                out += ct
            else:
                out += sum(v[3] for (_, _, c), v in by_caller.items() if c in callers)
        return out

    def traced_total(name):
        return sum(s[3] - s[2] for s in tracer.spans if s[1] == name)

    traced_s = traced.timings()["wall_s"]
    print("%s seed %d: traced rep %.3f s, profiled rep %.3f s (%.3f s of self time)"
          % (args.workload, args.seed, traced_s, profiled.timings()["wall_s"], total))
    print("%-22s %9s %7s   %-40s %9s %7s"
          % ("layer", "traced s", "of rep", "cProfile (cumulative)", "s", "of rep"))
    for layer, (module, func) in LAYER_FUNCTIONS.items():
        t, c = traced_total(layer), cumulative(module, func)
        print("%-22s %9.4f %6.1f%%   %-40s %9.4f %6.1f%%"
              % (layer, t, 100 * t / traced_s, module + ":" + func, c, 100 * c / total))

    print("\nmost self time under cProfile:")
    top = sorted(stats.items(), key=lambda kv: -kv[1][2])[:10]
    for (path, line, name), (_, calls, tt, ct, _) in top:
        print("  %8.4f s %6.1f%%  %8d calls  %s:%d(%s)"
              % (tt, 100 * tt / total, calls, os.path.basename(path), line, name))

    if spec.name == "baselines-w8a":
        return
    # shares of DR iteration time: the traced iteration span against
    # cProfile's _iterate plus the sampler call the run loop makes
    it_t = traced_total("dr.iteration")
    it_c = cumulative("dr.py", "_iterate") + cumulative("sampling.py", "sample_without_replacement")
    inner = ("_iterate", "_block_products")
    rows = [
        ("sampling", traced_total("sampling"), cumulative("sampling.py", "sample_without_replacement")),
        ("prox.loss_prox", traced_total("prox.loss_prox"), cumulative("prox.py", "loss_prox")),
        ("dr.block_solve", traced_total("dr.block_solve"), cumulative("dr.py", "apply")),
        ("prox.reg", traced_total("prox.reg"),
         cumulative("prox.py", "prox_l1", inner) + cumulative("prox.py", "prox_group_l2", inner)),
        ("row gathers X[act_l]", None, cumulative("_index.py", "__getitem__", inner)),
    ]
    self_t = it_t - sum(r[1] for r in rows if r[1] is not None)
    rows.append(("dr.iter_self", self_t, None))
    print("\nshare of DR iteration time (traced %.3f s, cProfile %.3f s)" % (it_t, it_c))
    for label, t, c in rows:
        print("%-22s %8s   %8s" % (
            label,
            "-" if t is None else "%.1f%%" % (100 * t / it_t),
            "-" if c is None else "%.1f%%" % (100 * c / it_c),
        ))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    main()
