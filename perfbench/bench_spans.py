"""Layer spans recorded from outside the package.

The tracer replaces, at runtime, the module bindings through which each
layer is reached (``proxsplit.dr.loss_prox``, ``proxsplit.baselines.
sample_without_replacement``, ...) with wrappers that record a span per
call, and puts every original back on exit.  A binding is wrapped under
the name its caller imported it as: ``proxsplit.sampling.*`` itself is
never called by the solvers, so wrapping it would record nothing.

A span is (id, name, start, end, parent id, run id, count), where count
is the work the call did (elements, draws, flops) or 0.  Spans stay in
memory and are written once, when the run ends; the per-layer table is
computed back from the written file.
"""

import csv
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run", "count")


class NullTracer:
    """Tracing off: the benchmark's own spans cost one no-op call each."""

    @contextmanager
    def span(self, name, count=0):
        yield None

    def set_count(self, sid, count):
        pass

    def end_iteration(self):
        pass


class Tracer:
    """Spans of the traced reps of one run; run_id tells the reps apart."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._patched = []
        self._iteration = None

    def open(self, name, count=0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, perf_counter(), None, parent, self.run_id, count])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        """End span sid and any span still open inside it (left open when
        a solver raised mid-iteration)."""
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][3] = now
            if top == self._iteration:
                self._iteration = None
            if top == sid:
                break

    @contextmanager
    def span(self, name, count=0):
        sid = self.open(name, count)
        try:
            yield sid
        finally:
            self.close(sid)

    def set_count(self, sid, count):
        self.spans[sid][6] = int(count)

    def end_iteration(self):
        """Close the open iteration span; the solver callback calls this."""
        if self._iteration is not None:
            self.close(self._iteration)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a wrapper recording span `name` per call.

        count(*args) gives the span's work count.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name, 0 if count is None else count(*args))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(sid)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_sampler(self, owner, iteration_name):
        """Wrap owner.sample_without_replacement; its first call after a
        callback opens the iteration span that the next callback closes.
        Draws count only when randomness is consumed (k below the pool size)."""
        original = owner.sample_without_replacement
        tracer = self

        def wrapper(rng, pool, k):
            if tracer._iteration is None:
                tracer._iteration = tracer.open(iteration_name)
            sid = tracer.open("sampling", int(k) if int(k) < len(pool) else 0)
            try:
                return original(rng, pool, k)
            finally:
                tracer.close(sid)

        self._patched.append((owner, "sample_without_replacement", original))
        owner.sample_without_replacement = wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer binding the workloads reach; restore on exit."""
        from proxsplit import baselines, dr

        def elements(loss, v, gamma):
            return int(np.size(v))

        def flops(precond, b, z):
            return 2 * int(np.size(z)) ** 2

        try:
            self.wrap_sampler(dr, "dr.iteration")
            self.wrap_sampler(baselines, "baselines.iteration")
            self.wrap(dr, "loss_prox", "prox.loss_prox", elements)
            self.wrap(baselines, "loss_prox", "prox.loss_prox", elements)
            self.wrap(dr, "prox_l1", "prox.reg")
            self.wrap(dr, "prox_group_l2", "prox.reg")
            self.wrap(baselines, "reg_prox", "prox.reg")
            self.wrap(dr.Preconditioner, "apply", "dr.block_solve", flops)
            self.wrap(dr, "objective", "model.objective")
            self.wrap(baselines, "objective", "model.objective")
            self.wrap(dr, "reg_prox", "model.reg_prox")
            self.wrap(baselines, "operator_norm_sq", "baselines.operator_norm")
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched = []
            self._iteration = None

    def write(self, path):
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(SPAN_FIELDS)
            for s in self.spans:
                out.writerow([s[0], s[1], repr(s[2]), repr(s[3]), s[4], s[5], s[6]])


def read_spans(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        (int(r["id"]), r["name"], float(r["start"]), float(r["end"]),
         int(r["parent"]), int(r["run"]), int(r["count"]))
        for r in rows
    ]


# per-layer metric -> unit; every traced run reports all of them
LAYER_UNITS = {
    "data.parse_s": "s",
    "data.parse_mb_per_s": "MB/s",
    "data.binarize_s": "s",
    "data.nnz": "count",
    "sampling.calls": "count",
    "sampling.draws": "count",
    "sampling.s": "s",
    "sampling.ns_per_draw": "ns",
    "prox.loss_prox.calls": "count",
    "prox.loss_prox.elements": "count",
    "prox.loss_prox.s": "s",
    "prox.loss_prox.ns_per_element": "ns",
    "prox.reg.calls": "count",
    "prox.reg.s": "s",
    "dr.setup_s": "s",
    "dr.iterations": "count",
    "dr.iter_s": "s",
    "dr.iter_self_s": "s",
    "dr.block_solve.calls": "count",
    "dr.block_solve.flops": "count",
    "dr.block_solve.s": "s",
    "dr.iters_to_target": "count",
    "dr.final_gap": "ratio",
    "model.objective.calls": "count",
    "model.objective.s": "s",
    "model.reg_prox.s": "s",
    "trace.records": "count",
    "trace.write_s": "s",
    "cli.save_model_s": "s",
    "baselines.sfb.ms_per_iter": "ms",
    "baselines.rda.ms_per_iter": "ms",
    "baselines.bcpd.ms_per_iter": "ms",
    "baselines.operator_norm_s": "s",
    "trace_overhead_pct": "%",
}


def _run_table(spans):
    """Per-layer totals of one run id's spans."""
    ids = {s[0] for s in spans}
    child_time = {}
    for s in spans:
        if s[4] in ids:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(s[3] - s[2] for s in named(name))

    def count(name):
        return sum(s[6] for s in named(name))

    t = {}
    t["data.parse_s"] = total("data.parse")
    t["data.parse_mb_per_s"] = (count("data.parse") / 1e6 / t["data.parse_s"]) if t["data.parse_s"] else 0.0
    t["data.binarize_s"] = total("data.binarize")
    t["data.nnz"] = count("data.binarize")
    t["sampling.calls"] = len(named("sampling"))
    t["sampling.draws"] = count("sampling")
    t["sampling.s"] = total("sampling")
    t["sampling.ns_per_draw"] = 1e9 * t["sampling.s"] / t["sampling.draws"] if t["sampling.draws"] else 0.0
    t["prox.loss_prox.calls"] = len(named("prox.loss_prox"))
    t["prox.loss_prox.elements"] = count("prox.loss_prox")
    t["prox.loss_prox.s"] = total("prox.loss_prox")
    t["prox.loss_prox.ns_per_element"] = (
        1e9 * t["prox.loss_prox.s"] / t["prox.loss_prox.elements"] if t["prox.loss_prox.elements"] else 0.0
    )
    t["prox.reg.calls"] = len(named("prox.reg"))
    t["prox.reg.s"] = total("prox.reg")
    iters = named("dr.iteration")
    t["dr.setup_s"] = 0.0
    for run in named("dr.run"):
        first = min((s[2] for s in iters if s[4] == run[0]), default=None)
        if first is not None:
            t["dr.setup_s"] += first - run[2]
    t["dr.iterations"] = len(iters)
    t["dr.iter_s"] = total("dr.iteration")
    t["dr.iter_self_s"] = sum(s[3] - s[2] - child_time.get(s[0], 0.0) for s in iters)
    t["dr.block_solve.calls"] = len(named("dr.block_solve"))
    t["dr.block_solve.flops"] = count("dr.block_solve")
    t["dr.block_solve.s"] = total("dr.block_solve")
    t["model.objective.calls"] = len(named("model.objective"))
    t["model.objective.s"] = total("model.objective")
    t["model.reg_prox.s"] = total("model.reg_prox")
    t["trace.write_s"] = total("trace.write_csv")
    t["cli.save_model_s"] = total("cli.save_model")
    base_iters = named("baselines.iteration")
    for solver in ("sfb", "rda", "bcpd"):
        ids = {s[0] for s in named("baselines." + solver)}
        mine = [s[3] - s[2] for s in base_iters if s[4] in ids]
        t["baselines.%s.ms_per_iter" % solver] = 1e3 * sum(mine) / len(mine) if mine else 0.0
    t["baselines.operator_norm_s"] = total("baselines.operator_norm")
    return t


def layer_table(spans):
    """Median over run ids of each run's per-layer totals (counts repeat exactly)."""
    runs = sorted({s[5] for s in spans})
    tables = [_run_table([s for s in spans if s[5] == r]) for r in runs]
    return {key: statistics.median(t[key] for t in tables) for key in tables[0]}
