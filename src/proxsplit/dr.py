"""Random block-coordinate Douglas-Rachford splitting.

The solver maintains primal auxiliaries (w_b, t_b) per coordinate block
and dual auxiliaries (v_l, s_l) per sample, linked by the aggregate
u_b = sum_l A*_{l,b} s_{l,b} / (1 + gamma_l rho_l) with A_{l,b} w_b =
y_l <x_{l,b}, w_b>.  One iteration activates a subset of blocks and a
mini-batch of samples:

    w_b <- C_b (t_b - tau_b u_b)                                 (activated b)
    t_b <- t_b + mu (prox_{tau_b f_b}(2 w_b - t_b) - w_b)
    v_l <- (s_l + gamma_l (A_{l,b} w_b)_b) / (1 + gamma_l rho_l)  (activated l)
    p_l = 2 sum_b v_{l,b} - sum_b s_{l,b}
    q_l = prox_{B(1-gamma_l rho_l)/gamma_l h}(p_l / gamma_l)
    s_{l,b} <- s_{l,b} + mu ((p_l - gamma_l q_l)/(B(1-gamma_l rho_l)) - v_{l,b})
    u_b <- u_b + sum_l A*_{l,b} (s_{l,b}^new - s_{l,b}) / (1 + gamma_l rho_l)

with C_b = (Id + tau_b sum_l c_l x_{l,b} x_{l,b}^T)^{-1},
c_l = gamma_l / (1 + gamma_l rho_l), Cholesky-factored once up front, so
applying C_b costs two triangular solves with the factor.  Only the lower
triangle of each resolvent matrix, the part the factorization and the
solves read, is written, a panel of rows at a time, into the one array
that is then factored in place, and only the factors are kept.  The maths
allows a step per block and per sample; the code takes one tau, gamma,
rho and mu for all of them (tau_b = tau, gamma_l = gamma, rho_l = rho),
and custom loops vary mu per call of :func:`dr_iterate`.  The printed
scheme reads the pre-iteration w in the v-update ("literal"); composing
the resolvents instead reads the block value just produced ("refreshed",
the default), which is also what the simplified single-block scheme of
:func:`run_simplified` does.

An iteration gathers the rows of its mini-batch once, through
:meth:`proxsplit.model.TrainingSet.rows` (a full batch uses the matrix's
arrays as they are), from the row-sorted CSR the training set keeps.
The gathered rows are the mini-batch's operator A = diag(y) X, whose
products apply the labels, so no code here reads them.  It reads the
mini-batch's dual rows of s with ``np.take`` and writes them back by
index; a full batch (act_l None, which :func:`run` and
:func:`dr_iterate` pass for every sample) updates s itself in place.
All B forward products are one multi-vector product with the N x B
block-diagonal layout of w, and all B adjoint products are one adjoint
product whose column b is read on block b only.
Gather and products run scipy's own sparsetools kernels on the CSR
arrays, with no scipy matrix object per step, and give the bits of the
public ``X[rows]``, ``@`` and ``.T @`` calls with the labels applied.
Sorted column indices keep the summation order of a per-block product,
so the iterates are the same bit for bit.  The layout is one flat index
per partition (:attr:`proxsplit.model.BlockPartition.diagonal`), which
scatters w into the N x B array and gathers the adjoint's columns back.

The primal half-step takes one pass over the coordinates: t - tau u is
formed once, each activated block solves into its slice of w, w is
checked finite once (the error names the first bad block), 2 w - t is
formed once, one ``prox_l1`` call covers each run of l1 blocks that
follow each other and ``prox_group_l2`` takes each group block, and t is
updated once on the activated coordinates.  The dual half sums the
(m, B) rows by B - 1 adds of whole columns, which give the bits of
numpy's own row sum for B < 8, and writes the new v rows only into a
state that has a v.

:func:`run` and :func:`run_simplified` are a setup plus a step and a
solution function handed to :func:`proxsplit.trace.drive`, the loop shared
with the baselines: each record is of the solution, the prox image the
run returns, and its objective is evaluated through this module's
``objective`` binding.  A run keeps no v: a step computes v_l
from s and w for each sample it draws and reads no older v, so only the
state of :func:`init_state` and :func:`dr_iterate` carries one.  With no
s0, a run starts from s = 0 and u = 0, the aggregate of s = 0, without
the product; with batch_size L, its step gets act_l None and draws
nothing.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dtrsv
from scipy.sparse import _sparsetools

from .errors import DomainError, FactorizationError, NumericalError
from .model import objective, reg_prox, reg_runs
from .prox import loss_beta, loss_prox, prox_group_l2, prox_l1
from .sampling import make_rng, sample_without_replacement
from .trace import (check_batch_size, check_count, check_loop_options, check_positive,
                    check_scalar, drive, float_copy)


@dataclass
class DRConfig:
    """Solver parameters.

    tau, gamma, rho and mu are scalars, shared by every block and sample;
    mu is the relaxation, in (ETA, 2 - ETA); rho > 0 is implemented for
    the logistic loss only.  batch_size None means every sample each
    iteration; primal_activation is "all" or the number of blocks drawn
    uniformly per iteration.  v_update_variant "refreshed" (the default)
    reads the block values w just produced in the v-update; "literal" is
    the printed scheme, which reads the pre-iteration w.
    seed (>= 0) seeds the random start and every draw, so a seeded run is
    bitwise reproducible on one BLAS build with one BLAS thread count:
    the Cholesky factorization (LAPACK dpotrf) gives a 2000-coordinate
    block factor different bits under OPENBLAS_NUM_THREADS=1 and =2.
    max_iters (>= 0) is the iteration budget, and the trace records every
    trace_stride iterations and the last one.
    plateau_window enables early stopping when the objective moves by less
    than plateau_rtol (relative) over that many iterations.
    """

    tau: float = 1.0
    gamma: float = 1.0
    rho: float = 0.0
    mu: float = 1.5
    batch_size: object = None
    primal_activation: object = "all"
    v_update_variant: str = "refreshed"
    seed: int = 0
    max_iters: int = 1000
    trace_stride: int = 10
    plateau_window: object = None
    plateau_rtol: float = 1e-10


# the relaxation mu must lie in (ETA, 2 - ETA)
ETA = 0.49


@dataclass
class _Resolved:
    """Validated step parameters."""

    tau: float
    gamma: float
    rho: float
    mu: float
    inv1p: float  # 1 / (1 + gamma * rho)
    batch_size: int
    primal_k: object  # None = all blocks
    literal: bool
    loop: tuple  # check_loop_options(config), what trace.drive takes


def resolve_config(problem, config):
    """Validate a DRConfig against a problem.

    Raises DomainError naming the violated inequality, or the parameter
    that is not a real scalar or out of range, such as a rho other than 0
    on a loss with no beta; returns the resolved floats, rho as given.
    """
    B = problem.num_blocks
    tau = check_positive("tau", config.tau)
    gamma = check_positive("gamma", config.gamma)
    rho = check_scalar("rho", config.rho, "be nonnegative, finite and a scalar",
                       lambda x: 0.0 <= x < math.inf)

    beta = loss_beta(problem.loss)
    if beta is None:
        if rho != 0.0:
            raise DomainError("must be 0 on the %s loss: rho > 0 is implemented for the "
                              "logistic loss only, got %r" % (problem.loss.value, config.rho),
                              "rho")
    elif B * beta * rho > 1.0:
        raise DomainError(
            "B*beta*rho <= 1 violated: B=%d, beta=%g, rho=%g gives %g"
            % (B, beta, rho, B * beta * rho)
        )
    if gamma * rho >= 1.0:
        raise DomainError(
            "gamma*rho < 1 violated: gamma=%g, rho=%g gives %g" % (gamma, rho, gamma * rho)
        )
    mu = _check_mu(config.mu)
    batch = check_batch_size(config.batch_size, problem.n_samples)

    primal_k = None
    if config.primal_activation != "all":
        primal_k = check_count("primal_activation ('all' or a block count)",
                               config.primal_activation, 1, B)

    if config.v_update_variant not in ("literal", "refreshed"):
        raise DomainError(
            "v_update_variant must be 'literal' or 'refreshed', got %r"
            % (config.v_update_variant,)
        )
    loop = check_loop_options(config)
    check_count("seed", config.seed, 0)

    return _Resolved(
        tau=tau,
        gamma=gamma,
        rho=rho,
        mu=mu,
        inv1p=1.0 / (1.0 + gamma * rho),
        batch_size=batch,
        primal_k=primal_k,
        literal=config.v_update_variant == "literal",
        loop=loop,
    )


def resolve_simplified(problem, config):
    """resolve_config for run_simplified, which also needs B = 1 and rho = 0."""
    res = resolve_config(problem, config)
    if problem.num_blocks != 1:
        raise DomainError("run_simplified requires a single block, got B=%d" % problem.num_blocks)
    if res.rho != 0.0:
        raise DomainError("run_simplified requires rho = 0")
    return res


def _check_mu(mu):
    return check_scalar("mu", mu, "lie in (%g, %g) and be a scalar" % (ETA, 2.0 - ETA),
                        lambda x: ETA < x < 2.0 - ETA)


@dataclass
class Preconditioner:
    """Cholesky factors of the block resolvents
    M_b = Id + tau * X_b^T diag(c) X_b, c = gamma/(1+gamma rho); labels
    cancel since y_l^2 = 1.

    factors[b] is the ``cho_factor`` pair (F, True): the lower factor L_b
    sits in the lower triangle of the Fortran-ordered array F, which BLAS
    reads without a copy.  M_b is not kept: its lower triangle is built in
    F and factored there in place, and the upper triangle of F is not M_b's
    (mostly zeros).  M_b and L_b are checked finite on the lower triangle
    once, when they are built, so apply checks only its right-hand side.
    """

    factors: list

    def apply(self, b, z):
        """Solve M_b @ out = z for a vector z of block b's length, by two
        BLAS triangular solves, L_b y = z and L_b^T out = y.

        DomainError if z is not of shape (n_b,), ValueError if it is not
        finite.
        """
        F = self.factors[b][0]
        if np.shape(z) != (F.shape[0],):
            raise DomainError("block %d solve needs a vector of shape (%d,), got shape %s"
                              % (b, F.shape[0], np.shape(z)))
        if not np.isfinite(z).all():
            raise ValueError("array must not contain infs or NaNs")
        return dtrsv(F, dtrsv(F, z, lower=1), lower=1, trans=1, overwrite_x=1)


def build_preconditioner(problem, config):
    """Assemble each block resolvent matrix in one array and factor it
    there; returns the Preconditioner holding the factors."""
    return _build_preconditioner(problem, resolve_config(problem, config))


# scratch entries of one Gram panel: the panel holds as many rows of M_b
# as fit, and at least one
_PANEL_ENTRIES = 2**18


def _build_preconditioner(problem, res):
    X = problem.data.features
    c = res.gamma * res.inv1p
    factors = []
    for b, sl in enumerate(problem.partition.slices()):
        # a column slice copies, even one that spans every column
        Xb = X if sl.stop - sl.start == X.shape[1] else X[:, sl]
        try:
            M = _resolvent_matrix(Xb, c, res.tau)
            factor = cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
        except (LinAlgError, ValueError) as exc:
            raise FactorizationError(
                "block %d resolvent factorization failed: %s" % (b, exc)
            ) from exc
        FT = factor[0].T
        if not all(_finite(FT[k0:k1, k0:]) for k0, k1 in _panels(len(FT))):
            raise FactorizationError("block %d resolvent factor is not finite" % b)
        factors.append(factor)
    return Preconditioner(factors=factors)


def _panels(n):
    """The row ranges k0:k1 of the Gram panels of an n x n block."""
    width = min(n, max(1, _PANEL_ENTRIES // n))
    return [(k0, min(k0 + width, n)) for k0 in range(0, n, width)]


def _finite(a):
    """No entry of a is inf or NaN; min and max propagate NaN, with no temporary."""
    return np.isfinite(a.min()) and np.isfinite(a.max())


def _index_type(count, *arrays):
    """The one index type of the arrays, widened to int64 if count does not fit it."""
    itype = np.result_type(*arrays)
    return itype if count <= np.iinfo(itype).max else np.dtype(np.int64)


def _resolvent_matrix(Xb, c, tau):
    """The lower triangle of M = Id + tau * Xb^T (c Xb), the part that
    ``cho_factor(lower=True)`` and the solves read, in a Fortran-ordered
    n x n array; above the diagonal it holds zeros and some of M.

    Row k of M^T is the product of row k of (c Xb)^T, that is column k of
    c Xb in CSC, with the CSR Xb.  scipy's sparse product kernel computes
    a panel k0:k1 of these rows at a time against Xb's rows cut to their
    columns >= k0 (Xb's column indices are sorted), and the dense kernel
    writes it into M^T[k0:k1, k0:], which is then scaled by tau and checked
    finite (ValueError).  Every entry written sums the same terms in the
    same order as the sparse product ``Xb.T @ Xb.multiply(c)``, with no
    count pass and no sparse Gram.
    """
    L, n = Xb.shape
    A = Xb.tocsc()
    A.data *= c
    # the kernels take one index type: they copy inputs of another type on
    # every call and reject outputs of another type
    itype = _index_type(2 * L + 1, A.indptr, A.indices, Xb.indptr, Xb.indices)
    Ap, Aj, Bj = (a.astype(itype, copy=False) for a in (A.indptr, A.indices, Xb.indices))
    # Row l of the cut Xb runs from P[2l], its first entry at a column >= k0,
    # to P[2l+1], its end; A's row indices are doubled to point there.
    # csr_matmat reads B's row pointers only at the rows that A names.
    Aj *= 2
    P = np.empty(2 * L + 1, dtype=itype)
    P[0::2] = Xb.indptr
    P[1::2] = Xb.indptr[1:]
    panels = _panels(n)
    width = panels[0][1]
    # csr_matmat writes Cj and Cx without bounds checks.  A row of the
    # product has at most n distinct columns, so width * n entries hold
    # any panel.
    Cp = np.empty(width + 1, dtype=itype)
    Cj = np.empty(width * n, dtype=itype)
    Cx = np.empty(width * n)
    MT = np.zeros((n, n))  # C order, so M = MT.T is Fortran-ordered
    for k0, k1 in panels:
        _sparsetools.csr_matmat(k1 - k0, n, Ap[k0:k1 + 1], Aj, A.data, P, Bj, Xb.data,
                                Cp, Cj, Cx)
        _sparsetools.csr_todense(k1 - k0, n, Cp, Cj, Cx, MT[k0:k1])
        if k1 < n:  # cut each row past its entries in columns k0:k1
            P[:-1] += np.bincount(Aj[Ap[k0]:Ap[k1]], minlength=2 * L)
        panel = MT[k0:k1, k0:]
        panel *= tau
        if not _finite(panel):
            raise ValueError("array must not contain infs or NaNs")
    M = MT.T
    M.flat[::n + 1] += 1.0
    return M


@dataclass
class DRState:
    """Solver state: primal w, t (length N), dual v, s (L x B), aggregate u.

    v is None in the state of :func:`run`, whose steps never read an old
    v; :func:`init_state` gives a v of zeros that :func:`dr_iterate` keeps
    current on the activated samples.
    """

    w: np.ndarray
    t: np.ndarray
    v: object  # np.ndarray or None
    s: np.ndarray
    u: np.ndarray
    iteration: int = 0


def dual_aggregate(problem, config, s):
    """Recompute u_b = sum_l y_l x_{l,b} s_{l,b} / (1 + gamma rho) from scratch."""
    res = resolve_config(problem, config)
    return _aggregate(problem, res, float_copy("s", s, (problem.n_samples, problem.num_blocks)))


def _aggregate(problem, res, s):
    u = _block_adjoint(problem.data.rows(), s * res.inv1p, problem.partition)
    if not np.isfinite(u).all():
        raise NumericalError("non-finite dual aggregate u")
    return u


def init_state(problem, config, t0, s0):
    """Fresh state: w = 0 (the first iteration overwrites activated blocks),
    t = t0, s = s0, v = 0, u aggregated from s0; a u that is not finite
    (sums of large finite entries can overflow) is a NumericalError."""
    res = resolve_config(problem, config)
    N, L, B = problem.n_features, problem.n_samples, problem.num_blocks
    t0 = float_copy("t0", t0, (N,))
    s0 = float_copy("s0", s0, (L, B))
    return DRState(w=np.zeros(N), t=t0, v=np.zeros((L, B)), s=s0, u=_aggregate(problem, res, s0))


def dr_iterate(state, problem, precond, config, epsilon, mu):
    """One splitting iteration, in place.

    epsilon is the activation mask of length B + L (first the blocks, then
    the samples), entries in {0, 1}, not all zero.  Non-activated blocks
    and samples keep their w, t, v, s coordinates bitwise unchanged; u is
    refreshed incrementally from the activated s deltas.
    """
    res = resolve_config(problem, config)
    B, L = problem.num_blocks, problem.n_samples
    eps = np.asarray(epsilon)
    if eps.shape != (B + L,):
        raise DomainError("epsilon must have length B + L = %d" % (B + L))
    if not np.isin(eps, (0, 1)).all():
        raise DomainError("epsilon entries must be 0 or 1")
    if not eps.any():
        raise DomainError("epsilon must activate at least one block or sample")
    act_b = np.flatnonzero(eps[:B])
    act_l = None if eps[B:].all() else np.flatnonzero(eps[B:])
    return _iterate(state, problem, precond, res, act_b, act_l, _check_mu(mu))


def _iterate(state, problem, precond, res, act_b, act_l, mu):
    # act_b holds distinct blocks, as the sampler and dr_iterate give them;
    # act_l None is every sample
    partition = problem.partition
    slices = partition.slices()
    B = len(slices)

    aw = None
    duals = act_l is None or act_l.size > 0
    if duals:
        rows = problem.data.rows(act_l)
        if res.literal:
            aw = _block_products(rows, state.w, partition)

    if len(act_b):
        w, t = state.w, state.t
        r = res.tau * state.u
        np.subtract(t, r, out=r)
        for b in act_b:
            w[slices[b]] = precond.apply(b, r[slices[b]])
        runs = reg_runs(problem, act_b)
        cols = (slice(None) if len(act_b) == B
                else np.concatenate([np.arange(sl.start, sl.stop) for sl, _ in runs]))
        if not np.isfinite(w[cols]).all():
            bad = next(b for b in act_b if not np.isfinite(w[slices[b]]).all())
            raise NumericalError("non-finite primal update in block %d" % bad)
        z = w * 2.0
        z -= t
        thresh = res.tau * problem.reg.lam
        for sl, kappa in runs:
            z[sl] = prox_l1(z[sl], thresh) if kappa == 1 else prox_group_l2(z[sl], thresh)
        # t + mu (prox(2w - t) - w) on the activated coordinates
        d = z[cols]
        d -= w[cols]
        d *= mu
        t[cols] += d

    if duals:
        if aw is None:
            aw = _block_products(rows, state.w, partition)
        g = res.gamma
        # every sample: s itself, updated in place below
        s_rows = state.s if act_l is None else np.take(state.s, act_l, axis=0)
        v_new = aw  # (s_rows + g aw) / (1 + g rho)
        v_new *= g
        v_new += s_rows
        v_new *= res.inv1p
        p = _row_sums(v_new)
        p *= 2.0
        p -= _row_sums(s_rows)
        if not np.isfinite(p).all():
            raise NumericalError("non-finite dual intermediate")
        scale = B * (1.0 - g * res.rho)
        q = loss_prox(problem.loss, p / g, scale / g)
        ds = q  # mu ((p - g q) / scale - v_new)
        ds *= g
        np.subtract(p, ds, out=ds)
        ds /= scale
        ds = np.subtract(ds[:, None], v_new)
        ds *= mu
        if not np.isfinite(ds).all():
            raise NumericalError("non-finite dual update")
        if state.v is not None:
            state.v[slice(None) if act_l is None else act_l] = v_new
        s_rows += ds
        if act_l is not None:
            state.s[act_l] = s_rows
        ds *= res.inv1p
        state.u += _block_adjoint(rows, ds, partition)

    state.iteration += 1
    return state


def _row_sums(a):
    """a.sum(axis=1) of an (m, B) array, bit for bit.  numpy adds fewer
    than 8 terms one at a time, starting from +0; B - 1 adds of whole
    columns do the same in a third of the time on a (1000, 4) array.  From
    8 terms on numpy sums pairwise, and its own sum is kept."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    out = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _block_products(rows, w, partition):
    """(A_{l,b} w_b)_{l,b} = y_l <x_{l,b}, w_b> as an (m, B) array, for the
    operator A of the gathered rows (a :class:`proxsplit.model.Rows`): one
    product with w laid out block-diagonally in an N x B array."""
    W = np.zeros((w.size, partition.num_blocks))
    W.put(partition.diagonal, w)
    return rows.margins(W)


def _block_adjoint(rows, M, partition):
    """(sum_l A*_{l,b} M_{l,b})_b = (sum_l y_l x_{l,b} M_{l,b})_b as a
    length-N vector, for the gathered rows and an (m, B) array M: one
    adjoint product whose column b is read on block b only."""
    return rows.aggregate(M).take(partition.diagonal)


def extract_solution(state, problem, config):
    """Solution candidate prox_{tau_b f_b}(2 w_b - t_b) per block, which
    carries exact zeros under l1/group-l2."""
    res = resolve_config(problem, config)
    return reg_prox(problem, 2.0 * state.w - state.t, res.tau)


def run(problem, config, t0=None, s0=None, reference=None, callback=None):
    """Run the block-coordinate splitting scheme.

    Per iteration the primal activation is every block ("all") or a
    uniform subset, and the dual activation is a uniform mini-batch drawn
    without replacement (partial Fisher-Yates); a full batch is every
    sample in order, with no draw.  By default t0 is a standard-normal
    draw from the config seed and s0 = 0.

    Parameters
    ----------
    problem : Problem
    config : DRConfig
    t0, s0 : optional initial auxiliaries (shapes (N,) and (L, B)).
    reference : optional solution vector; fills the dist_ref trace column.
    callback : optional callable(iteration, w) invoked after each iteration;
        w is the solver's live primal iterate, so copy it to keep it.

    Returns
    -------
    (w, trace)
        The extracted prox-image solution and the convergence trace.  Every
        record is of the prox image at its iteration, so the last one holds
        the objective, dist_ref and zeros of the returned w.
    """
    start = time.perf_counter()
    res = resolve_config(problem, config)
    N, L, B = problem.n_features, problem.n_samples, problem.num_blocks
    rng = make_rng(config.seed)
    w_init = rng.standard_normal(N)
    t = float_copy("t0", w_init if t0 is None else t0, (N,))
    s = np.zeros((L, B)) if s0 is None else float_copy("s0", s0, (L, B))
    precond = _build_preconditioner(problem, res)
    # s = 0 aggregates to +0.0 in every coordinate of finite data, which
    # the factorization has checked
    u = np.zeros(N) if s0 is None else _aggregate(problem, res, s)
    # a step reads no v it did not just compute, so a run keeps none
    state = DRState(w=np.zeros(N), t=t, v=None, s=s, u=u)
    pool_b = np.arange(B)
    pool_l = np.arange(L)
    full = res.batch_size == L  # every sample, in order, with no draw

    def step(i):
        act_b = pool_b if res.primal_k is None else sample_without_replacement(rng, pool_b, res.primal_k)
        act_l = None if full else sample_without_replacement(rng, pool_l, res.batch_size)
        return _iterate(state, problem, precond, res, act_b, act_l, res.mu).w

    def solution():
        return reg_prox(problem, 2.0 * state.w - state.t, res.tau)

    trace = drive(res.loop, start, problem, objective, step, solution, reference, callback)
    return solution(), trace


def run_simplified(problem, config, t0=None, st0=None, reference=None, callback=None):
    """Single-block splitting with rho = 0, in substituted variables.

    Requires B = 1 and rho = 0.  Works on st = -tau*s and ut = -tau*u, so
    the dual update needs no v at all:

        w <- C (t + ut)
        t <- t + mu (prox_{tau f}(2 w - t) - w)
        q_l = prox_{h/gamma_l}(2 A_l w - st_l / (tau gamma_l))   (activated l)
        st_l <- st_l + mu tau gamma_l (q_l - A_l w)
        ut <- ut + sum_l A*_l (st_l^new - st_l)

    With matched seeds this reproduces the iterates of :func:`run` (same
    variant) exactly up to rounding.  As in run, the returned w and every
    record are of the prox image prox_{tau f}(2 w - t), and the callback
    gets the primal iterate w.
    """
    start = time.perf_counter()
    res = resolve_simplified(problem, config)
    N, L = problem.n_features, problem.n_samples
    tau, g, mu = res.tau, res.gamma, res.mu
    rng = make_rng(config.seed)
    w_init = rng.standard_normal(N)
    t = float_copy("t0", w_init if t0 is None else t0, (N,))
    st = np.zeros(L) if st0 is None else float_copy("st0", st0, (L,))
    precond = _build_preconditioner(problem, res)
    # st = 0 aggregates to +0.0, as in run; rho = 0, so the scale is 1
    ut = np.zeros(N) if st0 is None else _aggregate(problem, res, st[:, None])
    w = np.zeros(N)
    pool_l = np.arange(L)
    full = res.batch_size == L  # every sample, in order, with no draw

    def step(i):
        nonlocal w, t, ut
        act_l = None if full else sample_without_replacement(rng, pool_l, res.batch_size)
        sel = slice(None) if full else act_l
        w_old = w
        w = precond.apply(0, t + ut)
        if not np.isfinite(w).all():
            raise NumericalError("non-finite primal update")
        t += mu * (reg_prox(problem, 2.0 * w - t, tau) - w)
        rows = problem.data.rows(act_l)
        aw = rows.margins(w_old if res.literal else w)
        q = loss_prox(problem.loss, 2.0 * aw - st[sel] / (tau * g), 1.0 / g)
        ds = mu * tau * g * (q - aw)
        if not np.isfinite(ds).all():
            raise NumericalError("non-finite dual update")
        st[sel] += ds
        ut += rows.aggregate(ds)
        return w

    def solution():
        return reg_prox(problem, 2.0 * w - t, tau)

    trace = drive(res.loop, start, problem, objective, step, solution, reference, callback)
    return solution(), trace
