"""Independent reference computations for the test suite.

Everything here is deliberately naive: bisection instead of Newton,
dense eigensolvers instead of power iteration, bounded scalar search
instead of closed forms.  Slow but hard to get wrong, so the fast
implementations can be checked against these.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.optimize import minimize_scalar
from scipy.special import expit

import proxsplit as px
from proxsplit.errors import ConvergenceError
from proxsplit.prox import loss_prox, prox_group_l2, prox_l1


def prox_logistic_bisect(v, gamma, iters=200):
    """Root of p - v - gamma*sigma(-p) by plain bisection on [v, v+gamma]."""
    v = float(v)
    gamma = float(gamma)
    lo, hi = v, v + gamma
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - v - gamma * expit(-mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _sigma_neg(p):
    """1 / (exp(p) + 1), overflow-safe for any float p."""
    t = np.exp(-np.abs(p))
    return np.where(p >= 0.0, t / (1.0 + t), 1.0 / (1.0 + t))


def _prox_logistic_newton(v, gamma, tol, max_iters):
    """Safeguarded Newton for the logistic prox on the bracket [v, v+gamma]."""
    lo = v.copy()
    hi = v + gamma
    p = v + 0.5 * gamma
    step_old = hi - lo
    done = np.zeros(v.shape, dtype=bool)
    tol_abs = tol * np.maximum(1.0, gamma)
    for _ in range(max_iters):
        g = p - v - gamma * _sigma_neg(p)
        t = np.exp(-np.abs(p))
        gp = 1.0 + gamma * t / (1.0 + t) ** 2
        hi = np.where(~done & (g > 0.0), p, hi)
        lo = np.where(~done & (g <= 0.0), p, lo)
        width = hi - lo
        done |= (np.abs(g) <= tol_abs) | (width <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(p)))
        if np.all(done):
            break
        cand = p - g / gp
        # bisect when the step leaves the bracket or fails to halve the
        # previous one; plain in-bracket acceptance admits two-cycles that
        # straddle the root without ever tightening it
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi) | (2.0 * np.abs(g) > step_old * gp)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        step_old = np.where(done, step_old, np.abs(cand - p))
        p = np.where(done, p, cand)
    else:
        raise ConvergenceError("logistic prox Newton did not converge in %d iterations" % max_iters)
    return p


# prox_logistic_bracketed hands gamma + v at or below this to the
# asymptotic expansion, as the library did alongside the bracketed kernel
V_SWITCH = -35.0


def prox_logistic_bracketed(v, gamma):
    """The logistic prox by bracketed, bisection-safeguarded Newton from the
    midpoint of (v, v+gamma), with the asymptotic tail and open-interval
    clamp the library had around it: the kernel the log-space Newton
    replaced, kept to bound how far the two drift apart."""
    v, gamma = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(gamma, dtype=float))
    v = np.atleast_1d(v)
    gamma = np.atleast_1d(gamma)
    tail = gamma + v <= V_SWITCH
    p = np.empty_like(v)
    p[tail] = px.prox_logistic_asymptotic(v[tail], gamma[tail])
    p[~tail] = _prox_logistic_newton(v[~tail], gamma[~tail], 1e-14, 200)
    return clamp_open_interval(p, v, gamma)


def clamp_open_interval(p, v, gamma):
    """p kept inside (v, v+gamma) by the two nextafter bounds, applied to
    every element: the clamp prox_logistic ran on every call before it
    skipped a result already strictly inside."""
    return np.maximum(np.minimum(p, np.nextafter(v + gamma, -np.inf)), np.nextafter(v, np.inf))


def prox_logistic_fine_stop(v, gamma, max_iters=200):
    """The log-space Newton kernel as it was before its stop moved from
    steps of 1e-8 to 1e-6: an element is done once its step is at most
    1e-8 or rounds away (u - step >= u), and a done element's step is not
    taken; the loop ends when every element is done, with z = e^u of the
    last sweep.  Then the closing step in p and the eager clamp."""
    v, gamma = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(gamma, dtype=float))
    flip = v < -0.5 * gamma
    a = np.where(flip, -(v + gamma), v)
    log_gamma = np.log(gamma)
    c = log_gamma - a
    c1 = np.maximum(c, 1.0)
    u = np.minimum(np.minimum(log_gamma, c), np.log(c1) * (c1 / (1.0 + c1)))
    for _ in range(max_iters):
        z = np.exp(u)
        x = a + z
        softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        step = (u + softplus - log_gamma) / (1.0 + z * np.exp(x - softplus))
        u_new = u - step
        done = (u_new >= u) | (step <= 1e-8)
        if np.all(done):
            break
        u = np.where(done, u, u_new)
    else:
        raise ConvergenceError("logistic prox Newton did not converge in %d iterations" % max_iters)
    tiny = np.finfo(float).tiny
    lo = np.maximum(np.where(flip, gamma - z, z), tiny)
    hi = np.maximum(np.where(flip, z, gamma - z), tiny)
    p = np.where(flip, (v + gamma) - z, v + z)
    return clamp_open_interval(p - (p + np.log(lo) - np.log(hi)) / (1.0 + 1.0 / lo + 1.0 / hi),
                               v, gamma)


def prox_logistic_newton_allocating(v, gamma, max_iters=200):
    """The log-space Newton kernel written with plain expressions, each of
    which allocates its result: prox._prox_logistic_newton before its sweeps
    moved into preallocated buffers, which must give the same bits."""
    flip = v < -0.5 * gamma
    a = np.where(flip, -(v + gamma), v)
    log_gamma = np.log(gamma)
    c = log_gamma - a
    c1 = np.maximum(c, 1.0)
    u = np.minimum(np.minimum(log_gamma, c), np.log(c1) * (c1 / (1.0 + c1)))
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(max_iters):
        z = np.exp(u)
        x = a + z
        softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        step = (u + softplus - log_gamma) / (1.0 + z * np.exp(x - softplus))
        u_new = u - step
        keep = done | (u_new >= u)
        u = np.where(keep, u, u_new)
        done = keep | (step <= 1e-6)
        if done.all():
            break
    else:
        raise ConvergenceError("logistic prox Newton did not converge in %d iterations" % max_iters)
    z = np.exp(u)
    tiny = np.finfo(float).tiny
    lo = np.maximum(np.where(flip, gamma - z, z), tiny)
    hi = np.maximum(np.where(flip, z, gamma - z), tiny)
    p = np.where(flip, (v + gamma) - z, v + z)
    return p - (p + (np.log(lo) - np.log(hi))) / (1.0 + 1.0 / lo + 1.0 / hi)


def logistic_loss_logaddexp(v):
    """log(1 + exp(-v)) as np.logaddexp(0, -v): the formula loss_value used
    before it moved to numpy's vectorised exp and log1p loops."""
    return np.logaddexp(0.0, -np.asarray(v, dtype=float))


def objective_logaddexp(problem, w):
    """The full criterion through the public X @ w and, for the logistic
    loss, logaddexp: the record value before both changed."""
    m = problem.data.labels * (problem.data.features @ np.asarray(w, dtype=float))
    if problem.loss is px.ScalarLoss.LOGISTIC:
        losses = logistic_loss_logaddexp(m)
    else:
        losses = px.loss_value(problem.loss, m)
    return float(np.sum(losses) + px.regularizer_value(problem, w))


def prox_by_minimization(loss_fn, v, gamma):
    """argmin_p 0.5*(p - v)^2 + gamma*loss_fn(p) by bounded scalar search."""
    v = float(v)
    gamma = float(gamma)
    span = 10.0 + abs(v) + gamma
    res = minimize_scalar(
        lambda p: 0.5 * (p - v) ** 2 + gamma * loss_fn(p),
        bounds=(v - span, v + span),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def top_eigenvalue(X):
    """Largest eigenvalue of X^T X via the dense symmetric eigensolver."""
    dense = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    if dense.shape[1] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(dense.T @ dense)[-1])


def resolvent_matrix(problem, config, b):
    """Block b's resolvent Id + tau X_b^T diag(c) X_b, c = gamma/(1+gamma rho),
    the plain way: scipy's sparse Gram, densified (Fortran-ordered, as
    a CSC product's ``toarray`` gives), scaled and shifted."""
    res = px.resolve_config(problem, config)
    Xb = problem.data.features[:, problem.partition.slices()[b]]
    M = (Xb.T @ Xb.multiply(res.gamma * res.inv1p)).toarray()
    M *= res.tau
    M.flat[::M.shape[0] + 1] += 1.0
    return M


# Correctly rounded doubles computed with mpmath at 60 decimal digits.
# Compared with a few-ulp tolerance, never bitwise.
PROX_LOGISTIC_0_1 = 0.40105813754154701      # prox of logistic at v=0, gamma=1
PROX_LOGISTIC_10_1 = 10.00004539580797       # v=10, gamma=1
PROX_LOGISTIC_25_05 = 2.5366637747721663     # v=2.5, gamma=0.5
PROX_LOGISTIC_M30_1 = -29.000000000000256    # v=-30, gamma=1 (deep tail)
PROX_LOGISTIC_M20_2 = -18.000000030459958    # v=-20, gamma=2 (deep tail)
PROX_LOGISTIC_HUGE = -42.306755091738395     # v=-1e20, gamma=1e20
PROX_LOGISTIC_TAIL_16 = -36.92227419548086   # v=-1.0000000000000036e16, gamma=1e16
PROX_LOGISTIC_TAIL_12 = -36.00023189849988   # v=-1000000000036.0, gamma=1e12
PROX_CONJ_5_2 = -0.07332754954433252         # conjugate prox, v=5, sigma=2


# ------------------------------------------------------------------------
# Naive references for the splitting solver's hot path.  The production
# sampler replays only its colliding steps through a dict of displaced
# slots and the production iteration gathers the mini-batch rows once;
# these do the textbook versions (numpy scalar swaps, one row gather per
# block and product) and must agree with them bit for bit.

def sample_by_swaps(rng, pool, k):
    """Partial Fisher-Yates by in-place swaps on pool, undone afterwards."""
    n = pool.shape[0]
    if k == n:
        return pool.copy()
    u = rng.random(k)
    swaps = np.empty(k, dtype=np.int64)
    for i in range(k):
        j = i + int(u[i] * (n - i))
        swaps[i] = j
        if j != i:
            pool[i], pool[j] = pool[j], pool[i]
    out = pool[:k].copy()
    for i in range(k - 1, -1, -1):
        j = swaps[i]
        if j != i:
            pool[i], pool[j] = pool[j], pool[i]
    return out


def block_columns(problem):
    """CSR column slice of X per block (sorted column indices)."""
    Xc = problem.data.features.tocsc()
    return [Xc[:, sl].tocsr() for sl in problem.partition.slices()]


class ScipyRows:
    """The rows X[act_l] and labels y[act_l] of a training set (act_l None:
    every row, still gathered), with the products of A = diag(y) X through
    scipy's public operators: the reference for model.Rows."""

    def __init__(self, tset, act_l=None):
        act_l = np.arange(tset.n_samples) if act_l is None else act_l
        self.matrix = tset.features[act_l]
        self.labels = tset.labels[act_l]
        self.shape = self.matrix.shape

    def _signs(self, M):
        return self.labels if np.ndim(M) == 1 else self.labels[:, None]

    def margins(self, M):
        return self._signs(M) * (self.matrix @ M)

    def aggregate(self, M):
        return self.matrix.T @ (self._signs(M) * M)


def scipy_rows(tset, act_l=None):
    """A stand-in for TrainingSet.rows that returns ScipyRows."""
    return ScipyRows(tset, act_l)


def iterate_per_block(state, problem, precond, res, act_b, act_l, mu, columns):
    """One splitting iteration with a row gather per block and product, and
    the block solve written out as its two BLAS triangular solves."""
    y = problem.data.labels
    slices = problem.partition.slices()
    B = len(slices)

    def products(w):
        out = np.empty((act_l.size, B))
        for b, sl in enumerate(slices):
            out[:, b] = columns[b][act_l] @ w[sl]
        out *= y[act_l][:, None]
        return out

    aw = products(state.w) if res.literal and act_l.size else None
    for b in act_b:
        sl = slices[b]
        F = precond.factors[b][0]
        wb = dtrsv(F, dtrsv(F, state.t[sl] - res.tau * state.u[sl], lower=1),
                   lower=1, trans=1, overwrite_x=1)
        state.w[sl] = wb
        z = 2.0 * wb - state.t[sl]
        thresh = res.tau * problem.reg.lam
        pz = prox_l1(z, thresh) if problem.kappas[b] == 1 else prox_group_l2(z, thresh)
        state.t[sl] += mu * (pz - wb)
    if act_l.size:
        if aw is None:
            aw = products(state.w)
        g = res.gamma
        s_rows = state.s[act_l, :]
        v_new = (s_rows + g * aw) * res.inv1p
        p = 2.0 * v_new.sum(axis=1) - s_rows.sum(axis=1)
        scale = B * (1.0 - g * res.rho)
        q = loss_prox(problem.loss, p / g, scale / g)
        ds = mu * (((p - g * q) / scale)[:, None] - v_new)
        state.v[act_l, :] = v_new
        state.s[act_l, :] = s_rows + ds
        coef = y[act_l] * res.inv1p
        for b in range(B):
            state.u[slices[b]] += columns[b][act_l].T @ (coef * ds[:, b])
    state.iteration += 1
    return state


def run_per_block(problem, config):
    """The seeded run loop with the reference sampler and iteration.

    Returns (w_hat, state): the prox-image solution and the final state.
    """
    res = px.resolve_config(problem, config)
    N, L, B = problem.n_features, problem.n_samples, problem.num_blocks
    rng = px.make_rng(config.seed)
    precond = px.build_preconditioner(problem, config)
    t0 = rng.standard_normal(N)
    state = px.init_state(problem, config, t0, np.zeros((L, B)))
    columns = block_columns(problem)
    pool_b, pool_l = np.arange(B), np.arange(L)
    for _ in range(int(config.max_iters)):
        act_b = pool_b if res.primal_k is None else sample_by_swaps(rng, pool_b, res.primal_k)
        act_l = sample_by_swaps(rng, pool_l, res.batch_size)
        iterate_per_block(state, problem, precond, res, act_b, act_l, res.mu, columns)
    return px.extract_solution(state, problem, config), state


def csr_from_rows(rows, dimension):
    """CSR of per-sample ``(1-based index, value)`` rows, built entry by
    entry from Python lists: the conversion the tuple-row dataset layout
    used, so the dtypes scipy picks follow the same path."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices = []
    data = []
    for i, entries in enumerate(rows):
        for index, value in entries:
            indices.append(index - 1)
            data.append(value)
        indptr[i + 1] = len(indices)
    return sp.csr_matrix(
        (np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int64), indptr),
        shape=(len(rows), dimension),
    )
