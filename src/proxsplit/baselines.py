"""Stochastic baseline solvers: forward-backward, dual averaging, primal-dual.

All three share the mini-batch convention of the splitting solver (uniform
without replacement, seeded), its trace format and its iteration loop
(:func:`proxsplit.trace.drive`), so benchmark runs are directly
comparable.  Each runner is a setup plus a step function; the loop
evaluates the records' objectives through this module's ``objective``
binding.
SFB and RDA use the decreasing steps gamma_i = c / sqrt(i+1); BCPD uses
constant steps tau, sigma subject to tau * sigma * ||sum_l x_l x_l^T|| <= 1.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DomainError, NumericalError
from .model import objective, reg_prox, smooth_gradient
from .prox import loss_prox, prox_conjugate
from .sampling import make_rng, sample_without_replacement
from .trace import (check_batch_size, check_count, check_loop_options, check_positive, drive,
                    float_copy)


@dataclass
class BaselineConfig:
    """Parameters shared by the baselines.

    step_c scales the decreasing SFB/RDA steps c/sqrt(i+1).  tau and sigma
    are the BCPD steps; sigma None means 1/(tau * ||sum x x^T||), the
    largest admissible value.  Each step is a positive, finite scalar.
    """

    step_c: float = 1.0
    tau: float = 0.1
    sigma: object = None
    batch_size: object = None
    seed: int = 0
    max_iters: int = 1000
    trace_stride: int = 10
    plateau_window: object = None
    plateau_rtol: float = 1e-10


def check_config(problem, config):
    """(step_c, tau, sigma or None, batch size, loop options), the last the
    check_loop_options tuple that trace.drive takes; DomainError on a step
    that is not positive and finite, the loop options, the batch size or
    the seed.  Every runner starts with this call, before its setup work,
    so a caller can make it before it creates files or runs anything."""
    step_c = check_positive("step_c", config.step_c)
    tau = check_positive("tau", config.tau)
    sigma = None if config.sigma is None else check_positive("sigma", config.sigma)
    loop = check_loop_options(config)
    batch = check_batch_size(config.batch_size, problem.n_samples)
    check_count("seed", config.seed, 0)
    return step_c, tau, sigma, batch, loop


def _seeded_start(problem, config, w0):
    """(rng, w): the seeded generator and the start point, a standard-normal
    draw from it only when w0 is None, checked before any setup work."""
    rng = make_rng(config.seed)
    N = problem.n_features
    return rng, rng.standard_normal(N) if w0 is None else float_copy("w0", w0, (N,))


def _finite(w, i):
    if not np.isfinite(w).all():
        raise NumericalError("non-finite iterate at iteration %d" % (i + 1))
    return w


def _step_size(step_c, i):
    return step_c / np.sqrt(i + 1.0)


def _gradient_run(problem, config, w0, reference, callback, update):
    """SFB and RDA: w <- update(w, batch gradient, gamma_i, i) per iteration;
    the step of the last iteration before each record goes to
    trace.extra["step"]."""
    start = time.perf_counter()
    step_c, _, _, batch, loop = check_config(problem, config)
    L = problem.n_samples
    rng, w = _seeded_start(problem, config, w0)
    pool_l = np.arange(L)

    def step(i):
        nonlocal w
        gamma_i = _step_size(step_c, i)
        act_l = None if batch == L else sample_without_replacement(rng, pool_l, batch)
        w = _finite(update(w, smooth_gradient(problem, w, act_l), gamma_i, i), i)
        return w

    trace = drive(loop, start, problem, objective, step, lambda: w, reference, callback)
    steps = [_step_size(step_c, r.iteration - 1) for r in trace.records[1:]]
    if steps:
        trace.extra["step"] = steps
    return w, trace


def sfb_run(problem, config, w0=None, reference=None, callback=None):
    """Stochastic forward-backward (proximal gradient) with decreasing steps.

    w <- prox_{gamma_i f}(w - gamma_i * batch gradient), gamma_i = c/sqrt(i+1).
    Returns (w, trace); the step sequence is kept in trace.extra["step"].
    """

    def update(w, gradient, gamma_i, i):
        return reg_prox(problem, w - gamma_i * gradient, gamma_i)

    return _gradient_run(problem, config, w0, reference, callback, update)


def rda_run(problem, config, w0=None, reference=None, callback=None):
    """Regularized dual averaging.

    Accumulates batch gradients in z and sets

        w <- prox_{gamma_i (i+1) f}(-gamma_i * z),   gamma_i = c/sqrt(i+1),

    i.e. the regularizer is weighted by the number of accumulated gradients
    so that its strength keeps pace with the growing dual sum; a coordinate
    stays at zero exactly when its running-average gradient is within the
    regularization threshold, matching the stationarity condition of the
    batch problem.  With a fixed weight the f term would fade relative to z
    and the iterates would drift toward the unregularized minimizer.
    """
    z = np.zeros(problem.n_features)

    def update(w, gradient, gamma_i, i):
        nonlocal z
        z += gradient
        return reg_prox(problem, -gamma_i * z, gamma_i * (i + 1.0))

    return _gradient_run(problem, config, w0, reference, callback, update)


def bcpd_run(problem, config, w0=None, reference=None, callback=None):
    """Block-coordinate primal-dual (Chambolle-Pock style) baseline.

        w+ <- prox_{tau f}(w - tau u)
        v_l <- prox_{sigma h*}(v_l + sigma y_l <x_l, 2 w+ - w>)   (batch only)
        u  <- u + sum_{l in batch} (v_l^new - v_l) y_l x_l

    Steps must satisfy tau * sigma * ||sum_l x_l x_l^T|| <= 1; sigma=None
    picks equality.
    """
    start = time.perf_counter()
    _, tau, sigma, batch, loop = check_config(problem, config)
    L = problem.n_samples
    rng, w = _seeded_start(problem, config, w0)
    nrm = operator_norm_sq(problem.data.features)
    if sigma is None:
        sigma = 1.0 / (tau * nrm) if nrm > 0.0 else 1.0
    if tau * sigma * nrm > 1.0 + 1e-12:
        raise DomainError(
            "tau*sigma*||sum x x^T|| <= 1 violated: tau=%g, sigma=%g, norm=%g gives %g"
            % (tau, sigma, nrm, tau * sigma * nrm)
        )
    v = np.zeros(L)
    u = np.zeros(problem.n_features)
    pool_l = np.arange(L)

    def prox_h(x, gamma):
        return loss_prox(problem.loss, x, gamma)

    def step(i):
        nonlocal w, u
        act_l = None if batch == L else sample_without_replacement(rng, pool_l, batch)
        sel = slice(None) if act_l is None else act_l
        w_new = reg_prox(problem, w - tau * u, tau)
        rows = problem.data.rows(act_l)
        arg = v[sel] + sigma * rows.margins(2.0 * w_new - w)
        v_new = prox_conjugate(prox_h, arg, sigma)
        u += rows.aggregate(v_new - v[sel])
        v[sel] = v_new
        w = _finite(w_new, i)
        return w

    trace = drive(loop, start, problem, objective, step, lambda: w, reference, callback)
    return w, trace


def operator_norm_sq(features, rtol=1e-6, max_iters=1000, seed=0):
    """||sum_l x_l x_l^T|| = largest eigenvalue of X^T X, by power iteration.

    Stops when the eigen-residual ||X^T X z - lam z|| drops below
    rtol * lam, which bounds the eigenvalue error by the same amount.
    When the squared norms of X^T X z under- or overflow (entries of
    about 1e-85 or 1e+140), the iteration restarts on X scaled to a
    largest |entry| of 1, with a budget of its own, and the eigenvalue is
    scaled back.  Raises ConvergenceError at the iteration cap,
    NumericalError when the scaled-back eigenvalue overflows a float
    (entries of about 1e+160) or is nan (an inf or nan entry),
    DomainError on an rtol that is not positive and finite or a
    max_iters or seed out of range.
    """
    rtol = check_positive("rtol", rtol)
    max_iters = check_count("max_iters", max_iters, 1)
    X = sp.csr_matrix(features, dtype=float)
    n = X.shape[1]
    if n == 0:
        raise DomainError("feature matrix must have at least one column")
    z = make_rng(seed).standard_normal(n)
    z /= np.linalg.norm(z)
    lam = _power_iteration(X, z, rtol, max_iters)
    if lam is None:
        scale = float(abs(X).max())
        lam = _power_iteration(X / scale, z, rtol, max_iters)
        lam = math.inf if lam is None else lam * scale * scale
        if not math.isfinite(lam):
            raise NumericalError("||sum x x^T|| overflows a float or is nan (largest |entry| %g)"
                                 % scale)
    return lam


def _power_iteration(X, z, rtol, max_iters):
    """Largest eigenvalue of X^T X from the unit vector z, or None when the
    norm of X^T X z underflows or is not finite (an overflow, or inf - inf
    inside the product), so the residual test cannot be trusted."""
    for _ in range(max_iters):
        mz = X.T @ (X @ z)
        lam = float(z @ mz)
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(mz))
        if nrm == 0.0 < lam or not math.isfinite(nrm):
            return None
        if np.linalg.norm(mz - lam * z) <= rtol * max(lam, np.finfo(float).tiny):
            return lam
        z = mz / nrm
    raise ConvergenceError(
        "power iteration did not reach relative tolerance %g in %d iterations" % (rtol, max_iters)
    )
