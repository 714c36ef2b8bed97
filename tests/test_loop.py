"""The iteration loop all five solvers share (trace.drive): loop options,
start vectors, the mini-batch gather, the record schedule, callbacks, the
plateau stop, determinism, and the module names through which each layer
is reached."""

import numpy as np
import pytest

import proxsplit as px
from proxsplit import baselines, dr, model, trace
from proxsplit.bench import SOLVERS
from proxsplit.errors import DomainError
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
    # each record holds the objective of the iterate the callback saw at its
    # iteration (DR starts from w = 0, a baseline from its seeded draw)
    prob = single_block_problem()
    start = np.zeros(6) if solver.startswith("dr") else px.make_rng(5).standard_normal(6)
    iterates = dict([(0, start)] + seen)
    assert [r.objective for r in tr.records] == [
        px.objective(prob, iterates[r.iteration]) for r in tr.records]
    assert tr.extra["stop_reason"] == "budget"
    # the last record is taken after the last callback, on the same iterate
    last = seen[-1][1]
    assert tr.final.objective == px.objective(single_block_problem(), last)
    assert tr.final.dist_ref == float(np.linalg.norm(last - reference))
    # the zero counts are those of the returned solution (DR: its prox image)
    assert (tr.final.zeros_exact, tr.final.zeros_tol) == (
        np.count_nonzero(w == 0.0), np.count_nonzero(np.abs(w) <= px.ZEROS_TOL))
    w2, tr2 = run(solver, max_iters=11, trace_stride=4, reference=reference)
    assert np.array_equal(w, w2)
    fields = [(r.iteration, r.objective, r.dist_ref, r.zeros_exact, r.zeros_tol)
              for r in tr.records]
    assert fields == [(r.iteration, r.objective, r.dist_ref, r.zeros_exact, r.zeros_tol)
                      for r in tr2.records]
    assert tr.extra == tr2.extra


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
    with pytest.raises(DomainError, match=r"reference must have shape \(6,\)"):
        run(solver, max_iters=2, reference=np.zeros(shape))
    _, tr = run(solver, max_iters=2, reference=np.zeros(6))
    assert tr.final.dist_ref >= 0.0


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
