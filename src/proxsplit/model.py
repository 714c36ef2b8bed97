"""Problem container: data, block structure, regularizer, loss.

A problem is the composite criterion

    F(w) = sum_l h(y_l * <x_l, w>) + lambda * sum_b ||w_b||_{kappa_b}

over contiguous coordinate blocks w_1, ..., w_B, where h is one of the
scalar margin losses and kappa_b in {1, 2} picks the l1 norm or the
(non-squared) l2 norm per block.  The data term is sum_l h((A w)_l) with
A = diag(y) X.  Only :class:`Rows`, A on a mini-batch or on a panel of
rows, applies the labels: :func:`objective` and :func:`smooth_gradient`
take their margins from it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools  # the kernels behind X[rows], X @ M and X.T @ M

from .errors import DomainError
from .prox import ScalarLoss, loss_grad, loss_value, prox_group_l2, prox_l1
from .trace import check_count, check_scalar


@dataclass(frozen=True)
class TrainingSet:
    """Feature matrix (L x N, CSR) with labels in {-1, +1}.

    features has sorted column indices, which fix the summation order of
    every solver product: a sorted float CSR is shared, anything else is
    sorted into one copy in which duplicate entries keep their order.
    """

    features: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        X = self.features
        if not (sp.issparse(X) and X.format == "csr" and X.dtype == np.float64):
            X = sp.csr_matrix(X, dtype=float)  # keep an already-canonical matrix shared
        if not X.has_sorted_indices:
            # The CSC round trip is a stable sort by column.
            X = X.tocsc().tocsr()
        y = np.asarray(self.labels, dtype=float).ravel()
        if X.shape[0] == 0 or X.shape[1] == 0:
            raise DomainError("training set must have at least one sample and one feature")
        if y.shape[0] != X.shape[0]:
            raise DomainError(
                "label count %d does not match sample count %d" % (y.shape[0], X.shape[0])
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DomainError("labels must be -1 or +1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def rows(self, act_l=None):
        """Rows of the samples act_l, indices in [0, L): the mini-batch a
        solver step works on.  act_l None, the full batch of every solver,
        gives every row without a gather; an index array, 0, ..., L-1
        included, is gathered in its order, repeats included.
        The gather is scipy's own row-index kernel, run on the arrays of
        features.  act_l must be a 1-D integer array or sequence; a boolean
        mask, floats (an empty list included) or an index outside [0, L) is
        a DomainError.
        """
        X = self.features
        if act_l is None:
            return Rows(self.labels, X.indptr, X.indices, X.data, X.shape[1])
        L = self.n_samples
        act_l = np.asarray(act_l)
        if act_l.dtype.kind not in "iu" or act_l.ndim != 1:
            raise DomainError("row indices must be a 1-D integer array, got %d-D %s"
                              % (act_l.ndim, act_l.dtype))
        # the kernel reads indptr at act_l unchecked
        if act_l.size and act_l.min() < 0:
            raise DomainError("row indices must be nonnegative")
        if act_l.size and act_l.max() >= L:
            raise DomainError("row indices must be below the sample count %d" % L)
        idx = act_l.astype(X.indptr.dtype, copy=False)
        indptr = np.empty(idx.size + 1, dtype=idx.dtype)
        indptr[0] = 0
        np.cumsum(X.indptr[idx + 1] - X.indptr[idx], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=idx.dtype)
        data = np.empty(indptr[-1])
        _sparsetools.csr_row_index(idx.size, idx, X.indptr, X.indices, X.data, indices, data)
        return Rows(self.labels[act_l], indptr, indices, data, X.shape[1])


class Rows:
    """The operator A_a = diag(y_a) X_a of a mini-batch: feature rows X_a,
    as CSR arrays (indptr, indices, data), and labels y_a = +-1, with the
    products margins(M) = A_a M and aggregate(M) = A_a^T M for a float
    vector or 2-D array M.

    The products call, on the arrays directly, the sparsetools kernel that
    scipy's own product would pick (one vector kernel for a vector or a
    single column, the multi-vector kernel otherwise), and flip signs by
    the labels, which is exact.  So they give scipy's bits without its
    per-call overhead, and the adjoint builds no transpose object.
    """

    __slots__ = ("labels", "indptr", "indices", "data", "shape")

    def __init__(self, labels, indptr, indices, data, n_features):
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (indptr.size - 1, n_features)

    def margins(self, M):
        """y_a * (X_a @ M) for M of shape (N,) or (N, k)."""
        m, n = self.shape
        out = self._product(_sparsetools.csr_matvec, _sparsetools.csr_matvecs, m, n, M)
        out *= self._signs(out)
        return out

    def aggregate(self, M):
        """X_a^T @ (y_a * M) for M of shape (m,) or (m, k)."""
        m, n = self.shape
        # an operand of the wrong shape reaches _product unsigned, which rejects it
        signed = self._signs(M) * M if M.shape[0] == m else M
        return self._product(_sparsetools.csc_matvec, _sparsetools.csc_matvecs, n, m, signed)

    def _signs(self, M):
        return self.labels if M.ndim == 1 else self.labels[:, None]

    def _product(self, vec, vecs, n_out, n_in, M):
        if M.shape[0] != n_in:
            raise DomainError("operand has %d rows, the product needs %d" % (M.shape[0], n_in))
        if M.ndim == 1 or M.shape[1] == 1:
            out = np.zeros(n_out)
            vec(n_out, n_in, self.indptr, self.indices, self.data, M.ravel(), out)
            return out if M.ndim == 1 else out[:, None]
        out = np.zeros((n_out, M.shape[1]))
        vecs(n_out, n_in, M.shape[1], self.indptr, self.indices, self.data, M.ravel(), out.ravel())
        return out


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous partition of {0, ..., N-1} given by offsets[0]=0 < ... < offsets[B]=N."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(check_count("offset", o, 0) for o in self.offsets)
        if len(offs) < 2 or offs[0] != 0:
            raise DomainError("offsets must start at 0 and contain at least one block")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise DomainError("offsets must be strictly increasing (empty blocks are not allowed)")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def contiguous(cls, n_features, num_blocks):
        """Split N coordinates into exactly num_blocks balanced blocks.

        Sizes differ by at most one and the larger blocks come first:
        (5, 2) gives offsets (0, 3, 5), (10, 6) gives (0, 2, 4, 6, 8, 9, 10).
        """
        n = check_count("n_features", n_features, 0)
        b = check_count("num_blocks", num_blocks, 1, n)
        size, extra = divmod(n, b)
        offs = [0]
        for i in range(b):
            offs.append(offs[-1] + size + (i < extra))
        return cls(tuple(offs))

    @property
    def num_blocks(self):
        return len(self.offsets) - 1

    @cached_property
    def diagonal(self):
        """Flat indices, into a C-ordered N x B array, of the entries
        (j, b) with coordinate j in block b: where a vector sits in its
        block-diagonal layout.  Built on first use, once per partition."""
        B = self.num_blocks
        sizes = np.diff(self.offsets)
        return np.arange(self.n_features) * B + np.repeat(np.arange(B), sizes)

    @property
    def n_features(self):
        return self.offsets[-1]

    def slices(self):
        return [slice(a, b) for a, b in zip(self.offsets, self.offsets[1:])]


@dataclass(frozen=True)
class RegularizerSpec:
    """Weight lam >= 0 and norm exponent kappa: 1 or 2, an int or a tuple per block."""

    lam: float
    kappa: object = 1

    def __post_init__(self):
        object.__setattr__(self, "lam", check_scalar("lam", self.lam, "be nonnegative and finite",
                                                     lambda x: 0.0 <= x < math.inf))
        kappa = self.kappa
        if np.ndim(kappa) == 0:
            kappa = check_count("kappa", kappa, 1, 2)
        else:
            kappa = tuple(check_count("block kappa", k, 1, 2) for k in kappa)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True)
class Problem:
    """A training set with its block partition, regularizer and loss."""

    data: TrainingSet
    partition: BlockPartition
    reg: RegularizerSpec
    loss: ScalarLoss = ScalarLoss.LOGISTIC
    kappas: tuple = field(init=False)

    def __post_init__(self):
        if not isinstance(self.loss, ScalarLoss):
            raise DomainError("must be a ScalarLoss member, got %r" % (self.loss,), "loss")
        if self.partition.n_features != self.data.n_features:
            raise DomainError(
                "partition covers %d coordinates but data has %d features"
                % (self.partition.n_features, self.data.n_features)
            )
        B = self.partition.num_blocks
        kappas = self.reg.kappa
        if isinstance(kappas, int):
            kappas = (kappas,) * B
        elif len(kappas) != B:
            raise DomainError("kappa has %d entries for %d blocks" % (len(kappas), B))
        object.__setattr__(self, "kappas", kappas)

    @property
    def n_features(self):
        return self.data.n_features

    @property
    def n_samples(self):
        return self.data.n_samples

    @property
    def num_blocks(self):
        return self.partition.num_blocks


def _vector(problem, w, name):
    """w as a float array; DomainError naming it unless its shape is (N,)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.n_features,):
        raise DomainError("must have shape (%d,), got %s" % (problem.n_features, w.shape), name)
    return w


def regularizer_value(problem, w):
    """lambda * sum_b ||w_b||_{kappa_b}; w must have shape (N,)."""
    w = _vector(problem, w, "w")
    total = 0.0
    for sl, kappa in zip(problem.partition.slices(), problem.kappas):
        block = w[sl]
        total += np.sum(np.abs(block)) if kappa == 1 else np.linalg.norm(block)
    return problem.reg.lam * total


# objective multiplies X by its columns a panel of rows at a time, about
# this many product entries per panel
PANEL_ENTRIES = 2 ** 15


def objective(problem, w):
    """Full criterion: summed margin losses plus the regularizer.

    w of shape (N,) gives one float.  An (N, K) stack gives an array of the
    K objectives of its columns, each with the bits of the call on that
    column alone.  Both take one pass over the rows of X, a panel of rows
    at a time: each panel's Rows gives its (rows, K) margins, which are
    written transposed into a (K, L) array whose rows then take the loss
    and its sum one by one.  That array holds 8 K L bytes while the call
    runs.  A vector is the stack of its one column.  Any other shape is a
    DomainError.
    """
    w = np.asarray(w, dtype=float)
    N = problem.n_features
    W = w[:, None] if w.shape == (N,) else w
    if W.ndim != 2 or W.shape[0] != N or W.shape[1] == 0:
        raise DomainError("must have shape (%d,) or (%d, K) with K >= 1, got %s"
                          % (N, N, w.shape), "w")
    K, L = W.shape[1], problem.n_samples
    X, y = problem.data.features, problem.data.labels
    T = np.empty((K, L))
    step = max(1, PANEL_ENTRIES // K)
    for r0 in range(0, L, step):
        r1 = min(r0 + step, L)
        # the row pointers of rows r0..r1-1 index X's own indices and data
        T[:, r0:r1] = Rows(y[r0:r1], X.indptr[r0:r1 + 1], X.indices, X.data, N).margins(W).T
    values = np.array([np.sum(loss_value(problem.loss, T[k]))
                       + regularizer_value(problem, W[:, k]) for k in range(K)])
    return float(values[0]) if w.ndim == 1 else values


def smooth_gradient(problem, w, act_l=None):
    """Gradient of the data-fit term on the samples act_l, all of them when
    None: A_a^T h'(A_a w) = sum_{l in act_l} y_l x_l h'(y_l <x_l, w>),
    with act_l as TrainingSet.rows takes it."""
    rows = problem.data.rows(act_l)
    return rows.aggregate(loss_grad(problem.loss, rows.margins(np.asarray(w, dtype=float))))


def reg_prox(problem, z, tau):
    """Blockwise prox of tau * lambda * ||.||_{kappa_b}; exact zeros survive.

    z must have shape (N,), and tau is one nonnegative, finite real number
    for every block; DomainError otherwise.  One prox call covers each run
    of l1 blocks.
    """
    tau = check_scalar("tau", tau, "be a scalar, nonnegative and finite",
                       lambda x: 0.0 <= x < math.inf)
    z = _vector(problem, z, "z")
    thresh = tau * problem.reg.lam
    out = np.empty_like(z)
    for sl, kappa in reg_runs(problem, range(problem.num_blocks)):
        out[sl] = prox_l1(z[sl], thresh) if kappa == 1 else prox_group_l2(z[sl], thresh)
    return out


def reg_runs(problem, blocks):
    """(slice, kappa) per run of the given blocks, in their order: an l1
    block that starts where an l1 run stops extends it, and any other
    block starts a run.  The l1 prox is elementwise, so one call covers a
    run; the group-l2 prox takes one block at a time."""
    offsets, kappas = problem.partition.offsets, problem.kappas
    runs = []
    for b in blocks:
        start, kappa = offsets[b], kappas[b]
        if kappa == 1 and runs and runs[-1][2] == 1 and runs[-1][1] == start:
            start = runs.pop()[0]
        runs.append((start, offsets[b + 1], kappa))
    return [(slice(a, b), kappa) for a, b, kappa in runs]


def predict(w, features):
    """Class labels sign(<x, w>); ties on the decision boundary go to +1."""
    scores = sp.csr_matrix(features, dtype=float) @ np.asarray(w, dtype=float)
    return np.where(scores >= 0.0, 1.0, -1.0)


def test_error(w, test_set):
    """Fraction of misclassified samples of a TrainingSet."""
    if test_set.n_samples == 0:
        raise DomainError("cannot evaluate the error of an empty test set")
    pred = predict(w, test_set.features)
    return float(np.mean(pred != test_set.labels))


def sparsity_degree(w, tol=1e-8):
    """Fraction of coordinates with |w_j| <= tol (tol=0 counts exact zeros)."""
    check_scalar("tol", tol, "be nonnegative", lambda x: x >= 0.0)
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise DomainError("empty weight vector")
    return float(np.mean(np.abs(w) <= tol))


def kkt_residual(problem, w):
    """Worst first-order optimality violation of w.

    With g the smooth-part gradient, stationarity requires -g to lie in the
    subdifferential of the regularizer.  Per l1 coordinate this means
    |g_j| <= lambda at zeros and g_j = -lambda*sign(w_j) elsewhere; per l2
    block, ||g_b|| <= lambda at zero blocks and g_b = -lambda*w_b/||w_b||
    elsewhere.  Returns the largest violation over all blocks.  A w of
    another shape than (N,) is a DomainError, and so is one with a NaN or
    an infinity, since max() would skip a NaN.
    """
    w = _vector(problem, w, "w")
    if not np.isfinite(w).all():
        raise DomainError("kkt_residual needs a finite w")
    g = smooth_gradient(problem, w)
    lam = problem.reg.lam
    worst = 0.0
    for sl, kappa in zip(problem.partition.slices(), problem.kappas):
        wb, gb = w[sl], g[sl]
        if kappa == 1:
            violation = np.where(wb == 0.0, np.maximum(np.abs(gb) - lam, 0.0),
                                 np.abs(gb + lam * np.sign(wb)))
            worst = max(worst, float(violation.max()))
        else:
            nrm = np.linalg.norm(wb)
            if nrm == 0.0:
                worst = max(worst, max(0.0, float(np.linalg.norm(gb)) - lam))
            else:
                worst = max(worst, float(np.linalg.norm(gb + lam * wb / nrm)))
    return worst
