"""The iteration loop all five solvers share (trace.drive): loop options,
start vectors, the mini-batch gather, the record schedule, callbacks, the
plateau stop, determinism, and the module names through which each layer
is reached."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import proxsplit as px
from proxsplit import baselines, dr, model, trace
from proxsplit.bench import SOLVERS
from proxsplit.errors import DomainError, NumericalError
from conftest import NoRowGatherKernels, make_problem

# keyword of each solver's start vector
START_KW = {"dr": "t0", "dr-simplified": "t0", "sfb": "w0", "rda": "w0", "bcpd": "w0"}


def single_block_problem():
    return make_problem(6, 12, 1, lam=0.4, seed=3)


def config_for(solver, **loop):
    loop = {"batch_size": 4, "seed": 5, **loop}
    if solver.startswith("dr"):
        return px.DRConfig(rho=0.0, **loop)
    return px.BaselineConfig(step_c=0.3, **loop)


def owner(solver):
    """The module through whose bindings the solver reaches each layer."""
    return dr if solver.startswith("dr") else baselines


def run(solver, **kwargs):
    loop = {k: kwargs.pop(k) for k in list(kwargs) if k in
            ("max_iters", "trace_stride", "plateau_window", "plateau_rtol", "batch_size",
             "seed")}
    return SOLVERS[solver](single_block_problem(), config_for(solver, **loop), **kwargs)


# ------------------------------------------------------------ loop options

@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("loop,msg", [
    (dict(trace_stride=0), "trace_stride must be >= 1"),
    (dict(max_iters=-1), "max_iters must be >= 0"),
    (dict(plateau_window=0), "plateau_window must be >= 1"),
    (dict(trace_stride=2.5), "trace_stride must be >= 1 and be an integer, got 2.5"),
    (dict(max_iters=4.7), "max_iters must be >= 0 and be an integer, got 4.7"),
    (dict(plateau_window=1.5), "plateau_window must be >= 1 and be an integer, got 1.5"),
    (dict(max_iters=float("inf")), "max_iters must be >= 0 and be an integer, got inf"),
    (dict(batch_size=2.5), r"batch_size must lie in \[1, 12\] and be an integer, got 2.5"),
    (dict(plateau_rtol=-1), "plateau_rtol must be nonnegative and finite, got -1"),
    (dict(plateau_rtol=float("nan")), "plateau_rtol must be nonnegative and finite, got nan"),
    (dict(plateau_rtol="1e-3"), "plateau_rtol must be nonnegative and finite, got '1e-3'"),
    (dict(seed=-1), "seed must be >= 0 and be an integer, got -1"),
    (dict(seed=2.5), "seed must be >= 0 and be an integer, got 2.5"),
    (dict(seed="3"), "seed must be >= 0 and be an integer, got '3'"),
    (dict(seed=True), "seed must be >= 0 and be an integer, got True"),
])
def test_every_solver_rejects_bad_loop_options(solver, loop, msg):
    seen = []
    with pytest.raises(DomainError, match=msg):
        run(solver, callback=lambda i, ww: seen.append(i), **loop)
    assert seen == []


# ------------------------------------------------------ mini-batch gather

@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_full_batch_gathers_no_rows(solver, monkeypatch):
    # a full batch works on the training set's arrays themselves; a smaller
    # one reaches the row gather, which NoRowGatherKernels turns into a failure
    prob = single_block_problem()
    monkeypatch.setattr(model, "_sparsetools", NoRowGatherKernels(model._sparsetools))
    SOLVERS[solver](prob, config_for(solver, max_iters=3, batch_size=None))
    with pytest.raises(AssertionError, match="must not gather rows"):
        SOLVERS[solver](prob, config_for(solver, max_iters=3, batch_size=prob.n_samples - 1))


# ----------------------------------------------------------- start vectors

@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("bad", [np.zeros((6, 1)), np.zeros(5), 0.0])
def test_misshapen_start_vector_is_a_domain_error(solver, bad):
    kw = START_KW[solver]
    with pytest.raises(DomainError, match=r"%s must have shape \(6,\)" % kw):
        run(solver, max_iters=1, **{kw: bad})


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_start_vector_is_copied(solver):
    start = np.linspace(-1.0, 1.0, 6)
    kept = start.copy()
    run(solver, max_iters=3, **{START_KW[solver]: start})
    assert np.array_equal(start, kept)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_random_start_is_drawn_unless_a_baseline_gets_w0(solver, monkeypatch):
    # DR always draws its standard-normal start; a baseline draws it only
    # when w0 is None, so its first sample comes from a fresh stream
    module = owner(solver)
    original = module.sample_without_replacement
    states = []

    def spy(rng, pool, k):
        states.append(rng.bit_generator.state)
        return original(rng, pool, k)

    monkeypatch.setattr(module, "sample_without_replacement", spy)
    after_draw = px.make_rng(5)
    after_draw.standard_normal(6)
    run(solver, max_iters=1)
    run(solver, max_iters=1, **{START_KW[solver]: np.zeros(6)})
    given = after_draw if solver.startswith("dr") else px.make_rng(5)
    assert states == [after_draw.bit_generator.state, given.bit_generator.state]


# ----------------------------------------------------------- loop contract

def fields_of(v, reference):
    """(objective, dist_ref, zeros_exact, zeros_tol) of the vector v, as a
    record of it holds them."""
    return (px.objective(single_block_problem(), v), float(np.linalg.norm(v - reference)),
            np.count_nonzero(v == 0.0), np.count_nonzero(np.abs(v) <= px.ZEROS_TOL))


def record_fields(record):
    return (record.objective, record.dist_ref, record.zeros_exact, record.zeros_tol)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_records_callbacks_and_seeded_determinism(solver, monkeypatch):
    reference = np.full(6, 0.25)
    seen, stacks = [], []
    module = owner(solver)
    original = module.objective

    def objective(problem, W):
        stacks.append(np.shape(W))
        return original(problem, W)

    def callback(i, ww):
        seen.append((i, ww.copy()))

    monkeypatch.setattr(module, "objective", objective)
    w, tr = run(solver, max_iters=11, trace_stride=4, reference=reference, callback=callback)
    monkeypatch.undo()
    assert [r.iteration for r in tr.records] == [0, 4, 8, 11]
    # one callback per iteration; the four records wait for one stacked evaluation
    assert [i for i, _ in seen] == list(range(1, 12))
    assert stacks == [(6, 4)]
    # each record is of the vector that a run of as many iterations returns:
    # DR's prox image, which the callback, given the primal iterate, never
    # sees; a baseline's iterate, which the callback saw
    returned = {k: run(solver, max_iters=k)[0] for k in (0, 4, 8)}
    returned[11] = w
    assert [record_fields(r) for r in tr.records] == [
        fields_of(returned[r.iteration], reference) for r in tr.records]
    if not solver.startswith("dr"):
        iterates = dict([(0, px.make_rng(5).standard_normal(6))] + seen)
        assert all(np.array_equal(v, iterates[k]) for k, v in returned.items())
    assert tr.extra["stop_reason"] == "budget"
    w2, tr2 = run(solver, max_iters=11, trace_stride=4, reference=reference)
    assert np.array_equal(w, w2)
    fields = [(r.iteration, r.objective, r.dist_ref, r.zeros_exact, r.zeros_tol)
              for r in tr.records]
    assert fields == [(r.iteration, r.objective, r.dist_ref, r.zeros_exact, r.zeros_tol)
                      for r in tr2.records]
    assert tr.extra == tr2.extra


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("loop,reason", [
    (dict(max_iters=0), "budget"),
    (dict(max_iters=11, trace_stride=4), "budget"),
    (dict(max_iters=50, trace_stride=3, plateau_window=5, plateau_rtol=1e9), "plateau"),
], ids=["zero-iterations", "strided", "plateau"])
def test_the_last_record_and_the_summary_row_are_of_the_returned_vector(solver, loop, reason):
    prob, reference = single_block_problem(), np.full(6, 0.25)
    w, tr = run(solver, reference=reference, **loop)
    assert tr.extra["stop_reason"] == reason
    assert record_fields(tr.final) == fields_of(w, reference)
    entry = px.BenchmarkEntry(name=solver, solver=solver, config=config_for(solver, **loop))
    [row] = px.run_benchmark(prob, [entry], reference=reference)
    assert (row.objective, row.dist_ref, row.zeros_pct) == (
        px.objective(prob, w), float(np.linalg.norm(w - reference)),
        100 * px.sparsity_degree(w, tol=0.0))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_each_run_decides_its_loop_options_once(solver, monkeypatch):
    # the runner's own check decides them, and drive takes the tuple it gave
    calls = []
    check = trace.check_loop_options

    def counted(config):
        calls.append(config)
        return check(config)

    for module in (trace, dr, baselines):
        monkeypatch.setattr(module, "check_loop_options", counted)
    run(solver, max_iters=3)
    assert len(calls) == 1


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("max_iters,capacity,stacks", [
    # 36 records, at 0, 2, ..., 68 and 69: two full batches and a part
    (69, 16, [16, 16, 4]),
    # a memory bound that fits 5 records of 12 margins and 6 coordinates
    (69, 5, [5] * 7 + [1]),
    (0, 16, [1]),
], ids=["batches-of-16", "batches-of-5", "zero-iterations"])
def test_batched_records_equal_records_evaluated_at_once(monkeypatch, solver, max_iters,
                                                          capacity, stacks):
    # a plateau window longer than the run cannot fire, but still has each
    # record evaluated as it is taken
    if capacity < trace.BATCH_RECORDS:
        monkeypatch.setattr(trace, "BATCH_BYTES", 8 * (12 + 6) * capacity + 7)
    module = owner(solver)
    original = module.objective
    widths = []

    def objective(problem, W):
        widths.append(W.shape[1])
        return original(problem, W)

    monkeypatch.setattr(module, "objective", objective)
    reference = np.full(6, 0.25)
    w, tr = run(solver, max_iters=max_iters, trace_stride=2, reference=reference)
    assert widths == stacks
    del widths[:]
    w_once, tr_once = run(solver, max_iters=max_iters, trace_stride=2, reference=reference,
                          plateau_window=1000, plateau_rtol=0.0)
    assert widths == [1] * sum(stacks)
    assert np.array_equal(w, w_once)
    fields = lambda t: [(r.iteration, r.objective.hex(), r.dist_ref.hex(), r.zeros_exact,
                         r.zeros_tol) for r in t.records]
    assert len(tr.records) == sum(stacks)
    assert fields(tr) == fields(tr_once)
    assert tr.extra == tr_once.extra and tr.extra["stop_reason"] == "budget"


def test_batch_capacity_keeps_margins_and_iterates_within_the_bound():
    batch_capacity, BATCH_BYTES = trace.batch_capacity, trace.BATCH_BYTES
    assert batch_capacity(12, 6) == 16
    assert batch_capacity(49749, 300) == 16  # 6.4 MB of w8a-shaped margins and iterates
    assert batch_capacity(200000, 2000) == BATCH_BYTES // (8 * 202000) == 5
    assert batch_capacity(2 * 10 ** 6, 10) == 1  # one record always fits
    for L, N in ((1000, 10), (100000, 300), (400000, 9000)):
        K = batch_capacity(L, N)
        assert K == 1 or 8 * (L + N) * K <= BATCH_BYTES


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_zero_iterations_record_only_the_start(solver):
    seen = []
    _, tr = run(solver, max_iters=0, callback=lambda i, ww: seen.append(i))
    assert [r.iteration for r in tr.records] == [0]
    assert seen == []
    assert tr.extra["stop_reason"] == "budget"


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_plateau_stop_ends_on_a_record(solver):
    # any objective change is within rtol=1e9, so the first record with one
    # at least 5 iterations older (iteration 6, against iteration 0) stops
    seen = []
    _, tr = run(solver, max_iters=50, trace_stride=3, plateau_window=5, plateau_rtol=1e9,
                callback=lambda i, ww: seen.append(i))
    assert tr.extra["stop_reason"] == "plateau"
    assert [r.iteration for r in tr.records] == [0, 3, 6]
    assert seen == list(range(1, 7))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("loop,reason,last", [
    (dict(max_iters=0), "budget", 0),
    (dict(max_iters=50, trace_stride=3, plateau_window=5, plateau_rtol=1e9), "plateau", 6),
    # a window the run never spans, so every iteration of the budget runs
    (dict(max_iters=7, trace_stride=3, plateau_window=50, plateau_rtol=1e9), "budget", 7),
], ids=["zero-iterations", "plateau", "full-budget"])
def test_stop_reason_says_why_the_run_ended(solver, loop, reason, last):
    _, tr = run(solver, **loop)
    assert tr.extra["stop_reason"] == reason
    # stop_reason is the one field that says so
    assert "stopped_by_plateau" not in tr.extra
    assert tr.final.iteration == last


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("shape", [(6, 1), (1,), (7,), ()])
def test_a_reference_of_another_shape_than_w_is_rejected(solver, shape):
    # a (6, 1) reference would broadcast w - reference into a 6 x 6 matrix
    seen = []
    with pytest.raises(DomainError, match=r"reference must have shape \(6,\)"):
        run(solver, max_iters=2, reference=np.zeros(shape), callback=lambda i, ww: seen.append(i))
    assert seen == []
    _, tr = run(solver, max_iters=2, reference=np.zeros(6))
    assert tr.final.dist_ref >= 0.0


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("loop", [
    dict(max_iters=0),
    dict(max_iters=20, trace_stride=3),
    dict(max_iters=50, trace_stride=3, plateau_window=5, plateau_rtol=1e9),
], ids=["zero-iterations", "batched", "plateau"])
def test_every_appended_record_is_whole(solver, loop, monkeypatch):
    # drive appends a record only once its objective is known; the spy
    # copies each field at the append, so a later assignment cannot hide
    appended = []
    append = trace.ConvergenceTrace.append

    def spy(self, record):
        appended.append(dataclasses.astuple(record))
        return append(self, record)

    monkeypatch.setattr(trace.ConvergenceTrace, "append", spy)
    _, tr = run(solver, reference=np.zeros(6), **loop)
    assert appended == [dataclasses.astuple(r) for r in tr.records]
    assert all(type(obj) is float and type(dist) is float for _, _, obj, dist, _, _ in appended)
    assert not hasattr(tr, "add")


# ----------------------------------------------------- the worker thread

# long enough for any step to come; a synchronous loop waits it out and fails
WAIT_S = 5.0


class StepFailed(Exception):
    pass


def drive_with(objective, step):
    """trace.drive on the single-block problem, 40 steps and a record at
    every iteration: its first batch of 16 is submitted after step 14."""
    w = np.zeros(6)
    return trace.drive((40, 1, None, 0.0), 0.0, single_block_problem(), objective,
                       lambda i: step(i, w), lambda: w)


def test_steps_run_while_the_worker_evaluates_a_batch():
    # the objective of the first batch finishes only once step 15 has run
    before = threading.active_count()
    stepped = threading.Event()

    def objective(problem, W):
        if not stepped.wait(WAIT_S):
            raise AssertionError("no step ran while the objective did")
        return model.objective(problem, W)

    def step(i, w):
        if i == 15:
            stepped.set()
        return w

    tr = drive_with(objective, step)
    assert [r.iteration for r in tr.records] == list(range(41))
    assert [r.objective for r in tr.records] == [px.objective(single_block_problem(),
                                                              np.zeros(6))] * 41
    assert threading.active_count() == before


def test_a_step_that_raises_while_a_batch_is_in_flight_leaves_no_thread():
    before = threading.active_count()
    released, finished = threading.Event(), []

    def objective(problem, W):
        if not released.wait(WAIT_S):
            raise AssertionError("no step ran while the objective did")
        finished.append(W.shape[1])
        return model.objective(problem, W)

    def step(i, w):
        if i == 15:
            released.set()
            raise StepFailed("step %d" % i)
        return w

    with pytest.raises(StepFailed, match="step 15"):
        drive_with(objective, step)
    # the run waited for the batch in flight before it raised
    assert finished == [16]
    assert threading.active_count() == before


def test_an_objective_that_raises_fails_the_run_on_the_calling_thread():
    # the error reaches the caller at the next settle, after the steps that
    # ran meanwhile, and the worker is gone
    before = threading.active_count()
    stepped, steps = threading.Event(), []

    def objective(problem, W):
        if not stepped.wait(WAIT_S):
            raise AssertionError("no step ran while the objective did")
        raise NumericalError("non-finite objective")

    def step(i, w):
        steps.append(i)
        if i == 15:
            stepped.set()
        return w

    with pytest.raises(NumericalError, match="non-finite objective"):
        drive_with(objective, step)
    assert steps == list(range(31))
    assert threading.active_count() == before


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_records_keep_their_bits_under_rapid_thread_switches(solver):
    # a 10 us switch interval interleaves the worker's objectives with the
    # steps about as finely as the interpreter allows; 70 records make four
    # full batches and a part, each submitted while the last may still run
    reference = np.full(6, 0.25)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _, tr = run(solver, max_iters=69, trace_stride=1, reference=reference,
                    callback=lambda i, ww: seen.append(ww.copy()))
    finally:
        sys.setswitchinterval(interval)
    _, tr_default = run(solver, max_iters=69, trace_stride=1, reference=reference)
    fields = lambda t: [(r.iteration, r.objective.hex(), r.dist_ref.hex(), r.zeros_exact,
                         r.zeros_tol) for r in t.records]
    assert [r.iteration for r in tr.records] == list(range(70))
    assert fields(tr) == fields(tr_default)
    if not solver.startswith("dr"):
        # a baseline's records are of the iterates the callback saw
        start = px.make_rng(5).standard_normal(6)
        assert [r.objective.hex() for r in tr.records] == [
            px.objective(single_block_problem(), w).hex() for w in [start] + seen]


def test_run_benchmark_rejects_a_reference_of_another_shape_than_w():
    entry = px.BenchmarkEntry(name="dr", solver="dr", config=config_for("dr", max_iters=2))
    with pytest.raises(DomainError, match="reference must have shape"):
        px.run_benchmark(single_block_problem(), [entry], reference=np.zeros(1))


# ------------------------------------------------- wrapped layer bindings

_WRAPPED = ("sample_without_replacement", "objective", "loss_prox", "reg_prox")


@pytest.mark.parametrize("solver,sampler,objective,loss_prox,reg_prox", [
    # 7 iterations, records at 0, 3, 6 and 7, whose objectives take one
    # stacked call; DR's reg_prox is one call per record plus the extracted
    # solution, the simplified scheme also calls it once per iteration
    ("dr", 7, 1, 7, 5),
    ("dr-simplified", 7, 1, 7, 12),
    ("sfb", 7, 1, 0, 7),
    ("rda", 7, 1, 0, 7),
    ("bcpd", 7, 1, 7, 7),
])
def test_layers_are_called_through_their_module_bindings(
    monkeypatch, solver, sampler, objective, loss_prox, reg_prox
):
    counts = {}
    for module in (dr, baselines):
        for name in _WRAPPED:
            key = "%s.%s" % (module.__name__, name)

            def counted(*args, _original=getattr(module, name), _key=key, **kwargs):
                counts[_key] = counts.get(_key, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    run(solver, max_iters=7, trace_stride=3)
    want = dict(zip(_WRAPPED, (sampler, objective, loss_prox, reg_prox)))
    prefix = owner(solver).__name__
    assert counts == {"%s.%s" % (prefix, k): v for k, v in want.items() if v}


@pytest.mark.parametrize("activation,l1,l2", [
    # blocks l1, l1, l2, l1: runs (0-1), (2), (3) when all are active
    ("all", 14, 7),
    # one block per iteration: one call each, l1 or group by the block drawn
    (1, None, None),
])
def test_dr_step_calls_its_prox_bindings_once_per_run(monkeypatch, activation, l1, l2):
    # the step reaches prox_l1 and prox_group_l2 through dr's own bindings,
    # not through reg_prox, which only the records and the solution call
    prob = make_problem(8, 12, 4, lam=0.4, seed=3, kappa=(1, 1, 2, 1))
    counts = {"prox_l1": 0, "prox_group_l2": 0, "reg_prox": 0}
    for name in counts:
        def counted(*args, _original=getattr(dr, name), _name=name):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(dr, name, counted)
    px.run(prob, px.DRConfig(rho=0.1, batch_size=4, primal_activation=activation, seed=5,
                             max_iters=7, trace_stride=7))
    assert counts["reg_prox"] == 3  # records at 0 and 7, and the solution
    if l1 is None:
        assert counts["prox_l1"] + counts["prox_group_l2"] == 7
    else:
        assert (counts["prox_l1"], counts["prox_group_l2"]) == (l1, l2)
