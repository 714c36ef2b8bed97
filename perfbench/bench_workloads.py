"""The three workloads, each one closed-loop repetition ("rep") at a time.

A rep makes only public proxsplit calls, times them from outside through
the solvers' ``callback(i, w)`` hook and its own clock, then checks the
outputs.  Inputs are generated and F* is computed before any rep runs.

    w8a-train       load_libsvm -> binarize -> Problem -> dr.run ->
                    cli.save_model + ConvergenceTrace.write_csv, the calls
                    ``proxsplit train`` makes
    wide-fullbatch  dr.run on an in-memory sparse Gaussian problem
    baselines-w8a   sfb_run, rda_run, bcpd_run in turn on the w8a matrix
                    held in memory
"""

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import bench_inputs as inputs


@dataclass(frozen=True)
class Spec:
    """Problem family and solver settings of one workload."""

    name: str
    shape: inputs.Shape
    loss: str
    blocks: int
    batch: object  # None = full batch
    iters: int
    target: float  # relative objective gap that counts as reached
    tau: float = 1.0
    gamma: float = 1.0
    rho: float = 0.0
    step_c: float = 0.1
    lam: float = 1.0
    stride: int = 10


SPECS = {
    "w8a-train": Spec("w8a-train", inputs.W8A, "logistic", blocks=4, batch=1000,
                      iters=800, target=1e-2, gamma=0.03, rho=0.1),
    "wide-fullbatch": Spec("wide-fullbatch", inputs.WIDE, "hinge_q2", blocks=1, batch=None,
                           iters=300, target=1e-2),
    # none of the baselines reaches 1e-2 within reach of a rep (sfb and rda
    # level off near 4%, bcpd is near 40% after 500 iterations), so their
    # target is the looser 0.8, which bcpd settles under at iteration 170
    "baselines-w8a": Spec("baselines-w8a", inputs.W8A, "logistic", blocks=4, batch=1000,
                          iters=500, target=0.8, tau=0.1),
}

SMOKE_SPECS = {
    "w8a-train": Spec("w8a-train", inputs.W8A_SMOKE, "logistic", blocks=4, batch=300,
                      iters=80, target=1e-2, gamma=0.03, rho=0.1),
    "wide-fullbatch": Spec("wide-fullbatch", inputs.WIDE_SMOKE, "hinge_q2", blocks=1, batch=None,
                           iters=60, target=1e-2),
    "baselines-w8a": Spec("baselines-w8a", inputs.W8A_SMOKE, "logistic", blocks=4, batch=300,
                          iters=40, target=0.8, tau=0.1),
}

BASELINE_SOLVERS = ("sfb", "rda", "bcpd")


@dataclass
class Prepared:
    """Inputs of one (workload, seed), made before timing starts."""

    spec: Spec
    seed: int
    f_star: float
    record: dict  # sizes, nonzeros and sha256 of every input, oracle summary
    X: object = None
    y: object = None
    libsvm_path: str = None
    libsvm_bytes: int = 0


def prepare(spec, seed, workdir):
    """Generate the inputs of spec for seed and compute F* with the oracle."""
    start = perf_counter()
    if spec.name == "wide-fullbatch":
        X, y = inputs.wide_gaussian(seed, spec.shape)
    else:
        X, y = inputs.w8a_like(seed, spec.shape)
    record = {"matrix": inputs.matrix_record(X, y)}
    prep = Prepared(spec=spec, seed=seed, f_star=0.0, record=record, X=X, y=y)
    if spec.name == "w8a-train":
        data = inputs.libsvm_text(X, y).encode("ascii")
        prep.libsvm_path = os.path.join(workdir, "train.libsvm")
        with open(prep.libsvm_path, "wb") as handle:
            handle.write(data)
        prep.libsvm_bytes = len(data)
        record["libsvm"] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        prep.X = prep.y = None  # the rep sees only the file
    orc = inputs.oracle(X, y, spec.lam, spec.loss)
    prep.f_star = orc.f_star
    record["oracle"] = {
        "f_star": orc.f_star, "kkt": orc.kkt, "nonzeros": orc.nonzeros, "seconds": orc.seconds,
    }
    record["prepare_s"] = perf_counter() - start
    return prep


class Callback:
    """The solvers' public per-iteration hook: one clock reading per call."""

    def __init__(self, tracer, clock):
        self.times = []
        self._tracer = tracer
        self._clock = clock

    def __call__(self, i, w):
        self.times.append(self._clock.now())
        self._tracer.end_iteration()  # before the probe, which is no layer's work
        self._clock.tick()


@dataclass
class SolverRun:
    """One solver call inside a rep and the outcome of its output checks."""

    name: str
    origin: float  # clock reading its setup and time to target count from
    times: list = field(default_factory=list)
    w: object = None
    trace: object = None
    failures: list = field(default_factory=list)
    hit: int = None  # iteration from which every trace record is within the target

    @property
    def ok(self):
        return not self.failures


@dataclass
class Rep:
    """Timings and checked outputs of one rep."""

    runs: list
    start: float = None
    end: float = None  # None when a solver raised
    clock: object = None

    @property
    def timed(self):
        return self.end is not None

    def timings(self, at=float):
        """wall_s, setup_s, iters_per_s and time_to_target_s, with `at`
        mapping each clock reading to the time scale reported.

        time_to_target_s ends at the callback of the record from which the
        run stays within the target; a run that misses it is censored at
        its last callback."""
        runs = self.runs
        return {
            "wall_s": at(self.end) - at(self.start),
            "setup_s": sum(at(r.times[0]) - at(r.origin) for r in runs),
            "iters_per_s": sum(len(r.times) - 1 for r in runs)
            / sum(at(r.times[-1]) - at(r.times[0]) for r in runs),
            "time_to_target_s": sum(at(r.times[(r.hit or len(r.times)) - 1]) - at(r.origin) for r in runs),
        }

    def gaps(self, f_star):
        return [(r.trace.final.objective - f_star) / abs(f_star) for r in self.runs]

    def final_gap_digits(self, f_star):
        return sum(-math.log10(max(g, 1e-16)) for g in self.gaps(f_star)) / len(self.runs)


def _check(run, spec, f_star):
    """Output checks every solver run must pass; failures are recorded."""
    if not np.all(np.isfinite(run.w)):
        run.failures.append("%s: non-finite w" % run.name)
    recs = run.trace.records
    if not recs[-1].objective <= recs[0].objective:
        run.failures.append("%s: final objective above the iteration-0 value" % run.name)
    if min(r.objective for r in recs) < f_star - 1e-8 * abs(f_star):
        run.failures.append("%s: objective below the oracle F*" % run.name)
    # the target counts as reached at the first record from which every
    # later record stays within it, so an early transient dip (bcpd
    # oscillates) does not count
    within = [(r.objective - f_star) / abs(f_star) <= spec.target for r in recs]
    settled = len(within)
    while settled > 0 and within[settled - 1]:
        settled -= 1
    run.hit = recs[settled].iteration if 0 < settled < len(recs) else None
    if run.hit is None:
        run.failures.append("%s: gap %g not reached in %d iterations" % (run.name, spec.target, spec.iters))


def _problem(px, spec, tset):
    return px.Problem(
        data=tset,
        partition=px.BlockPartition.contiguous(tset.n_features, spec.blocks),
        reg=px.RegularizerSpec(lam=spec.lam, kappa=1),
        loss=px.ScalarLoss(spec.loss),
    )


def _dr_config(px, spec, seed, n_samples):
    batch = None if spec.batch is None else min(spec.batch, n_samples)
    return px.DRConfig(
        tau=spec.tau, gamma=spec.gamma, rho=spec.rho, batch_size=batch,
        seed=seed, max_iters=spec.iters, trace_stride=spec.stride,
    )


def _train_rep(prep, tracer, clock, workdir):
    import proxsplit as px
    from proxsplit import cli, dr

    spec = prep.spec
    t0 = clock.now()
    run = SolverRun("dr", origin=t0)
    with tracer.span("data.parse", prep.libsvm_bytes):
        raw = px.load_libsvm(prep.libsvm_path)
    with tracer.span("data.binarize") as sid:
        tset = px.binarize(raw, None, n_features=raw.n_features)
        tracer.set_count(sid, tset.features.nnz)
    problem = _problem(px, spec, tset)
    cb = Callback(tracer, clock)
    with tracer.span("dr.run"):
        run.w, run.trace = dr.run(problem, _dr_config(px, spec, prep.seed, tset.n_samples), callback=cb)
    model_path = os.path.join(workdir, "model.txt")
    trace_path = os.path.join(workdir, "trace.csv")
    with tracer.span("cli.save_model"):
        cli.save_model(model_path, run.w, problem)
    with tracer.span("trace.write_csv"):
        run.trace.write_csv(trace_path)
    end = clock.now()
    run.times = cb.times
    _check(run, spec, prep.f_star)
    w_back, _ = cli.load_model(model_path)
    if inputs.array_sha256(w_back) != inputs.array_sha256(run.w):
        run.failures.append("dr: model.txt does not reload to w bit for bit")
    with open(trace_path) as handle:
        back = px.ConvergenceTrace.from_csv(handle)
    if [(r.iteration, r.objective) for r in back.records] != [
        (r.iteration, r.objective) for r in run.trace.records
    ]:
        run.failures.append("dr: trace.csv does not re-parse to the trace")
    return Rep(runs=[run], start=t0, end=end)


def _wide_rep(prep, tracer, clock, workdir):
    import proxsplit as px
    from proxsplit import dr

    spec = prep.spec
    t0 = clock.now()
    run = SolverRun("dr", origin=t0)
    problem = _problem(px, spec, px.TrainingSet(features=prep.X, labels=prep.y))
    cb = Callback(tracer, clock)
    with tracer.span("dr.run"):
        run.w, run.trace = dr.run(problem, _dr_config(px, spec, prep.seed, problem.n_samples), callback=cb)
    end = clock.now()
    run.times = cb.times
    _check(run, spec, prep.f_star)
    return Rep(runs=[run], start=t0, end=end)


def _baselines_rep(prep, tracer, clock, workdir):
    import proxsplit as px
    from proxsplit import baselines

    spec = prep.spec
    t0 = clock.now()
    problem = _problem(px, spec, px.TrainingSet(features=prep.X, labels=prep.y))
    config = px.BaselineConfig(
        step_c=spec.step_c, tau=spec.tau, batch_size=min(spec.batch, problem.n_samples),
        seed=prep.seed, max_iters=spec.iters, trace_stride=spec.stride,
    )
    runs = []
    for name in BASELINE_SOLVERS:
        run = SolverRun(name, origin=t0 if not runs else clock.now())
        cb = Callback(tracer, clock)
        with tracer.span("baselines." + name):
            run.w, run.trace = getattr(baselines, name + "_run")(problem, config, callback=cb)
        run.times = cb.times
        runs.append(run)
    end = clock.now()
    for run in runs:
        _check(run, spec, prep.f_star)
    return Rep(runs=runs, start=t0, end=end)


REPS = {"w8a-train": _train_rep, "wide-fullbatch": _wide_rep, "baselines-w8a": _baselines_rep}


def attempts(spec):
    return len(BASELINE_SOLVERS) if spec.name == "baselines-w8a" else 1


def run_rep(prep, tracer, clock, workdir):
    """One rep between two clock probes; a solver that raises fails every
    run of the rep and leaves it untimed."""
    clock.probe()
    try:
        rep = REPS[prep.spec.name](prep, tracer, clock, workdir)
        clock.probe()
        rep.clock = clock
        return rep
    except Exception as exc:  # a raising solver is a counted failure, not a crash
        run = SolverRun("rep", origin=0.0, failures=["raised %s: %s" % (type(exc).__name__, exc)])
        return Rep(runs=[run] * attempts(prep.spec))
