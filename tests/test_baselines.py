"""Tests for the three stochastic baseline solvers and the shared helpers.

Single-sample instances make the first iterations computable by hand; the
full convergence comparison against the splitting solver lives in the
acceptance tests.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import proxsplit as px
from proxsplit import baselines
from proxsplit.errors import ConvergenceError, DomainError, NumericalError
from conftest import make_problem, tiny_problem
from oracles import top_eigenvalue


# ------------------------------------------------------------------- SFB

def test_sfb_first_step_by_hand():
    # gradient at w=0 is -1/2, step 1: w1 = prox(1/2) = 1/2 when lam=0
    w, _ = px.sfb_run(tiny_problem(), px.BaselineConfig(step_c=1.0, max_iters=1),
                      w0=np.zeros(1))
    assert w[0] == 0.5


def test_sfb_large_lambda_pins_zero():
    w, _ = px.sfb_run(tiny_problem(lam=100.0), px.BaselineConfig(step_c=1.0, max_iters=1),
                      w0=np.zeros(1))
    assert w[0] == 0.0


def test_sfb_zero_features_reduce_to_prox():
    tset = px.TrainingSet(features=sp.csr_matrix(np.array([[0.0]])),
                          labels=np.array([1.0]))
    prob = px.Problem(data=tset, partition=px.BlockPartition.contiguous(1, 1),
                      reg=px.RegularizerSpec(lam=0.25), loss=px.ScalarLoss.LOGISTIC)
    w, _ = px.sfb_run(prob, px.BaselineConfig(step_c=1.0, max_iters=1),
                      w0=np.array([2.0]))
    assert w[0] == px.prox_l1(np.array([2.0]), 0.25)[0]  # gradient term vanishes


def test_step_law_is_c_over_sqrt():
    _, tr = px.sfb_run(tiny_problem(), px.BaselineConfig(step_c=0.3, max_iters=5,
                                                         trace_stride=1),
                       w0=np.zeros(1))
    assert tr.extra["step"] == [0.3 / np.sqrt(i + 1.0) for i in range(5)]


def test_sfb_deterministic_given_seed():
    prob = make_problem(6, 20, 1, lam=0.5, seed=2)
    cfg = px.BaselineConfig(step_c=0.2, batch_size=5, seed=7, max_iters=50)
    w1, _ = px.sfb_run(prob, cfg)
    w2, _ = px.sfb_run(prob, cfg)
    assert np.array_equal(w1, w2)


# ------------------------------------------------------------------- RDA

def test_rda_first_step_by_hand():
    # accumulated gradient after one step is -1/2
    w, _ = px.rda_run(tiny_problem(), px.BaselineConfig(step_c=1.0, max_iters=1),
                      w0=np.zeros(1))
    assert w[0] == 0.5


def test_rda_first_step_thresholds():
    w, _ = px.rda_run(tiny_problem(lam=0.6), px.BaselineConfig(step_c=1.0, max_iters=1),
                      w0=np.zeros(1))
    assert w[0] == 0.0
    w2, _ = px.rda_run(tiny_problem(lam=0.4), px.BaselineConfig(step_c=1.0, max_iters=1),
                       w0=np.zeros(1))
    assert w2[0] == pytest.approx(0.1, abs=1e-15)


def test_rda_keeps_regularizer_active_asymptotically():
    # the regularizer weight grows with the number of accumulated
    # gradients, so a lam above the data scale keeps producing zeros late
    prob = make_problem(10, 30, 1, lam=2.0, seed=3)
    w, _ = px.rda_run(prob, px.BaselineConfig(step_c=0.5, max_iters=3000,
                                              trace_stride=500), w0=np.zeros(10))
    assert px.sparsity_degree(w, tol=0.0) > 0.0


# ------------------------------------------------------------------ BCPD

def test_bcpd_two_iterations_by_hand():
    # w1 = 0; the first dual step makes v1 = -sigma*prox_{h/sigma}(0), and
    # w2 = -tau*u1 = tau*sigma*prox_{h/sigma}(0)
    seen = []
    w, _ = px.bcpd_run(tiny_problem(), px.BaselineConfig(tau=1.0, sigma=1.0,
                                                         max_iters=2, trace_stride=1),
                       w0=np.zeros(1), callback=lambda i, ww: seen.append(float(ww[0])))
    q = px.prox_logistic(0.0, 1.0)
    assert seen[0] == 0.0
    assert seen[1] == pytest.approx(q, abs=5e-16)
    assert w[0] == pytest.approx(q, abs=5e-16)


def test_bcpd_default_sigma_saturates_step_bound():
    prob = make_problem(6, 20, 1, lam=0.3, seed=5)
    w, tr = px.bcpd_run(prob, px.BaselineConfig(tau=0.05, max_iters=200,
                                                trace_stride=50), w0=np.zeros(6))
    assert np.all(np.isfinite(w))
    assert tr.final.objective < px.objective(prob, np.zeros(6))


def test_bcpd_rejects_violated_step_product():
    with pytest.raises(DomainError, match=r"tau\*sigma\*"):
        px.bcpd_run(tiny_problem(), px.BaselineConfig(tau=1.0, sigma=2.0, max_iters=1))


def test_baseline_config_validation():
    tiny = tiny_problem()
    with pytest.raises(DomainError, match="step_c"):
        px.sfb_run(tiny, px.BaselineConfig(step_c=0.0, max_iters=1))
    with pytest.raises(DomainError, match="step_c"):
        px.rda_run(tiny, px.BaselineConfig(step_c=-1.0, max_iters=1))
    with pytest.raises(DomainError, match="tau"):
        px.bcpd_run(tiny, px.BaselineConfig(tau=0.0, max_iters=1))
    with pytest.raises(DomainError, match="sigma"):
        px.bcpd_run(tiny, px.BaselineConfig(tau=1.0, sigma=-1.0, max_iters=1))
    with pytest.raises(DomainError, match="batch_size"):
        px.sfb_run(tiny, px.BaselineConfig(step_c=1.0, batch_size=0, max_iters=1))


@pytest.mark.parametrize("run,kwargs,name", [
    (px.sfb_run, dict(step_c=math.inf), "step_c"),
    (px.sfb_run, dict(step_c="x"), "step_c"),
    (px.rda_run, dict(step_c=[0.1]), "step_c"),
    (px.rda_run, dict(step_c=math.nan), "step_c"),
    (px.bcpd_run, dict(tau=math.inf), "tau"),
    (px.bcpd_run, dict(tau=[0.1]), "tau"),
    (px.bcpd_run, dict(sigma="x"), "sigma"),
    (px.bcpd_run, dict(sigma=math.inf), "sigma"),
    (px.bcpd_run, dict(sigma=np.ones(2)), "sigma"),
])
def test_baseline_steps_are_checked_before_any_iteration(run, kwargs, name):
    seen = []
    with pytest.raises(DomainError, match="%s must be positive, finite and a scalar" % name):
        run(tiny_problem(), px.BaselineConfig(max_iters=3, **kwargs),
            callback=lambda i, w: seen.append(i))
    assert seen == []


def _no_setup(*args):
    raise AssertionError("setup work started before the options were checked")


@pytest.mark.parametrize("kwargs,w0,message", [
    (dict(max_iters=-1), None, "max_iters must be >= 0"),
    (dict(trace_stride=0), None, "trace_stride must be >= 1"),
    (dict(plateau_window=0), None, "plateau_window must be >= 1"),
    (dict(batch_size=2), None, "batch_size must lie in"),
    (dict(), np.zeros(2), r"w0 must have shape \(1,\)"),
])
def test_bcpd_checks_options_and_start_before_the_operator_norm(monkeypatch, kwargs, w0, message):
    # the power iteration is the setup work of bcpd
    monkeypatch.setattr(baselines, "operator_norm_sq", _no_setup)
    with pytest.raises(DomainError, match=message):
        px.bcpd_run(tiny_problem(), px.BaselineConfig(**kwargs), w0=w0)


@pytest.mark.parametrize("run,kwargs", [
    (px.sfb_run, dict(step_c=0.0)),
    (px.rda_run, dict(step_c=math.nan)),
    (px.bcpd_run, dict(tau=-1.0)),
    (px.bcpd_run, dict(sigma="x")),
    (px.sfb_run, dict(batch_size=2)),
    (px.rda_run, dict(max_iters=-1)),
    (px.bcpd_run, dict(trace_stride=0)),
    (px.sfb_run, dict(plateau_window=2, plateau_rtol=-1.0)),
    (px.bcpd_run, dict(seed=-1)),
    (px.sfb_run, dict(tau=-1.0, sigma=-2.0)),
    (px.rda_run, dict(sigma=-2.0)),
    (px.sfb_run, dict(sigma=math.inf)),
    (px.rda_run, dict(tau="x")),
])
def test_check_config_raises_what_the_runner_raises(monkeypatch, run, kwargs):
    monkeypatch.setattr(baselines, "operator_norm_sq", _no_setup)
    config = px.BaselineConfig(**kwargs)
    with pytest.raises(DomainError) as ran:
        run(tiny_problem(), config)
    with pytest.raises(DomainError) as checked:
        baselines.check_config(tiny_problem(), config)
    assert str(checked.value) == str(ran.value)
    baselines.check_config(tiny_problem(), px.BaselineConfig())


# ------------------------------------------------------------ operator norm

def test_operator_norm_on_single_row():
    assert px.operator_norm_sq(sp.csr_matrix(np.array([[3.0, 4.0]]))) == pytest.approx(25.0, rel=1e-9)


def test_operator_norm_orthonormal_and_zero():
    assert px.operator_norm_sq(sp.csr_matrix(np.eye(3))) == pytest.approx(1.0, rel=1e-6)
    assert px.operator_norm_sq(sp.csr_matrix(np.zeros((2, 3)))) == 0.0


def test_operator_norm_matches_dense_eigensolver():
    rng = np.random.Generator(np.random.PCG64(6))
    for shape in ((30, 12), (9, 40), (25, 25)):
        X = sp.csr_matrix(rng.standard_normal(shape) * (rng.random(shape) < 0.5))
        want = top_eigenvalue(X)
        got = px.operator_norm_sq(X, rtol=1e-9)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-85, 1e-120, 1e140, 1e150])
def test_operator_norm_of_scaled_data_is_scaled_by_its_square(scale):
    # The squared norms of X^T X z underflow (or overflow) at these scales,
    # which once let the residual test pass at once on the random start.
    X = sp.random(200, 30, density=0.2, format="csr", random_state=np.random.default_rng(0))
    want = px.operator_norm_sq(X) * scale * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = px.operator_norm_sq(X * scale)
    assert got / want == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("scale", [1e160, 1e170])
def test_operator_norm_that_overflows_a_float_is_a_numerical_error(scale):
    # X^T X z holds inf - inf = nan here, and the norm itself passes the
    # largest float; this once ran out the iteration cap
    X = sp.random(200, 30, density=0.2, format="csr", random_state=np.random.default_rng(0))
    with pytest.raises(NumericalError, match="overflows a float"):
        px.operator_norm_sq(X * scale)


def test_operator_norm_at_its_iteration_cap_is_a_convergence_error():
    X = sp.csr_matrix(np.random.Generator(np.random.PCG64(6)).standard_normal((30, 12)))
    with pytest.raises(ConvergenceError, match="did not reach relative tolerance 1e-12 in 2"):
        px.operator_norm_sq(X, rtol=1e-12, max_iters=2)


def test_operator_norm_rejects_empty():
    with pytest.raises(DomainError, match="at least one column"):
        px.operator_norm_sq(sp.csr_matrix(np.zeros((2, 0))))


# ------------------------------------------------------------ full batch

def baseline_by_gathers(solver, problem, config):
    """w of sfb, rda or bcpd from their seeded start, with each step's full
    batch gathered from the index array 0, ..., L-1."""
    L, N = problem.n_samples, problem.n_features
    w = px.make_rng(config.seed).standard_normal(N)
    z, u, v = np.zeros(N), np.zeros(N), np.zeros(L)
    tau = config.tau
    sigma = 1.0 / (tau * px.operator_norm_sq(problem.data.features))
    every = np.arange(L)
    for i in range(config.max_iters):
        rows = problem.data.rows(every)
        if solver == "bcpd":
            w_new = px.reg_prox(problem, w - tau * u, tau)
            arg = v[every] + sigma * rows.margins(2.0 * w_new - w)
            v_new = px.prox_conjugate(lambda x, g: px.loss_prox(problem.loss, x, g), arg, sigma)
            u += rows.aggregate(v_new - v[every])
            v[every] = v_new
            w = w_new
            continue
        gamma = config.step_c / np.sqrt(i + 1.0)
        gradient = rows.aggregate(px.loss_grad(problem.loss, rows.margins(w)))
        if solver == "sfb":
            w = px.reg_prox(problem, w - gamma * gradient, gamma)
        else:
            z += gradient
            w = px.reg_prox(problem, -gamma * z, gamma * (i + 1.0))
    return w


@pytest.mark.parametrize("solver", ["sfb", "rda", "bcpd"])
def test_full_batch_draws_nothing_and_gives_the_bits_of_gathered_steps(solver, monkeypatch):
    # a full batch is act_l None: no sampler call, and the bits of steps
    # that gather 0, ..., L-1
    prob = make_problem(6, 20, 2, lam=0.3, seed=17)
    cfg = px.BaselineConfig(step_c=0.5, tau=0.5, seed=9, max_iters=25, trace_stride=5)
    want = baseline_by_gathers(solver, prob, cfg)
    draws = []
    sampler = baselines.sample_without_replacement

    def spy(rng, pool, k):
        draws.append(k)
        return sampler(rng, pool, k)

    monkeypatch.setattr(baselines, "sample_without_replacement", spy)
    w, _ = getattr(px, solver + "_run")(prob, cfg)
    assert draws == []
    assert np.array_equal(w, want)


# ------------------------------------------------------------ shared helpers

def test_plateau_hit_on_synthetic_traces():
    flat = px.ConvergenceTrace(setup_seconds=0.0)
    moving = px.ConvergenceTrace(setup_seconds=0.0)
    for i in range(0, 60, 10):
        flat.append(px.TraceRecord(iteration=i, seconds=i * 0.1, objective=5.0,
                                   dist_ref=None, zeros_exact=0.0, zeros_tol=0.0))
        moving.append(px.TraceRecord(iteration=i, seconds=i * 0.1, objective=5.0 - 0.1 * i,
                                     dist_ref=None, zeros_exact=0.0, zeros_tol=0.0))
    assert px.plateau_hit(flat, 30, 1e-9)
    assert not px.plateau_hit(moving, 30, 1e-9)
    short = px.ConvergenceTrace(setup_seconds=0.0)
    short.append(px.TraceRecord(iteration=0, seconds=0.0, objective=1.0,
                                dist_ref=None, zeros_exact=0.0, zeros_tol=0.0))
    assert not px.plateau_hit(short, 10, 1e-9)


def test_sample_without_replacement_is_uniform_subset():
    rng = px.make_rng(0)
    pool = np.arange(10)
    for k in (1, 4, 10):
        pick = px.sample_without_replacement(rng, pool, k)
        assert len(pick) == k
        assert len(np.unique(pick)) == k
        assert np.all(np.isin(pick, pool))
