"""Seeded input generators and the independent oracle for F*.

Every generator takes the seed as its only source of randomness, so the
same seed writes byte-identical inputs.  The problem structure (column
densities, planted model) is fixed and only the draws vary with the
seed: seeds give replicates of one problem family rather than problems
of different difficulty, which keeps the convergence metrics comparable
from seed to seed.

The oracle never calls proxsplit: it minimises the same criterion with
scipy's L-BFGS-B on the split form w = a - b, a, b >= 0.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit


@dataclass(frozen=True)
class Shape:
    """Generator sizes for one problem family."""

    n_samples: int
    n_features: int
    density: float


# w8a: 49,749 x 300 binary features at about 4% density
W8A = Shape(n_samples=49749, n_features=300, density=0.0442)
WIDE = Shape(n_samples=20000, n_features=2000, density=0.01)
# toy sizes for the smoke mode and the benchmark's own tests
W8A_SMOKE = Shape(n_samples=1200, n_features=40, density=0.1)
WIDE_SMOKE = Shape(n_samples=400, n_features=60, density=0.1)


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64([int(seed), stream]))


def _interleave(n):
    """Fixed permutation spreading a sorted profile over contiguous blocks."""
    step = next(s for s in range(int(n * 0.382), n) if math.gcd(s, n) == 1)
    return (np.arange(n) * step) % n


def _columns(rng, shape, values):
    """CSR matrix with per-column Bernoulli supports; values(rng, k) fills them.

    The column densities follow a fixed geometric profile (ratio 40
    between the sparsest and the densest column) with the requested mean,
    interleaved so every contiguous block sees the same mix.
    """
    L, N = shape.n_samples, shape.n_features
    profile = np.geomspace(1.0, 40.0, N)[_interleave(N)]
    dens = profile * (shape.density / profile.mean())
    indptr = [0]
    indices = []
    data = []
    for j in range(N):
        rows = np.flatnonzero(rng.random(L) < dens[j])
        indices.append(rows)
        data.append(values(rng, rows.size))
        indptr.append(indptr[-1] + rows.size)
    Xc = sp.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)), shape=(L, N)
    )
    return Xc.tocsr()


def _planted(N, count, magnitude):
    """Fixed sparse model: `count` evenly spaced coordinates of alternating sign."""
    w = np.zeros(N)
    idx = (np.arange(count) * N) // count + (N // count) // 2
    w[idx] = magnitude * np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    return w


def w8a_like(seed, shape=W8A):
    """Binary features, labels from a planted sparse logistic model.

    Returns (X, y) with y in {-1, +1}; about a fifth of the labels are +1.
    """
    rng = _rng(seed, 1)
    X = _columns(rng, shape, lambda r, k: np.ones(k))
    margin = X @ _planted(shape.n_features, max(shape.n_features // 10, 2), 1.5) - 2.0
    y = np.where(margin + rng.logistic(size=shape.n_samples) >= 0.0, 1.0, -1.0)
    return X, y


def wide_gaussian(seed, shape=WIDE):
    """Sparse standard-normal features, labels from a planted sparse model plus noise."""
    rng = _rng(seed, 2)
    X = _columns(rng, shape, lambda r, k: r.standard_normal(k))
    margin = X @ _planted(shape.n_features, max(shape.n_features // 20, 2), 1.0)
    y = np.where(margin + 0.3 * rng.standard_normal(shape.n_samples) >= 0.0, 1.0, -1.0)
    return X, y


def libsvm_text(X, y):
    """The libsvm text of a binary-valued CSR matrix with +1/-1 labels."""
    X = sp.csr_matrix(X)
    tokens = ["%d:1" % (j + 1) for j in range(X.shape[1])]
    labels = np.where(y > 0, "+1", "-1")
    lines = []
    for i in range(X.shape[0]):
        cols = X.indices[X.indptr[i]:X.indptr[i + 1]]
        lines.append(" ".join([labels[i]] + [tokens[j] for j in np.sort(cols)]))
    return "\n".join(lines) + "\n"


def array_sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def matrix_record(X, y):
    """Sizes, nonzeros and content hash of an in-memory input."""
    X = sp.csr_matrix(X)
    h = hashlib.sha256()
    for part in (X.indptr.astype(np.int64), X.indices.astype(np.int64), X.data, y):
        h.update(np.ascontiguousarray(part).tobytes())
    return {
        "rows": int(X.shape[0]),
        "cols": int(X.shape[1]),
        "nnz": int(X.nnz),
        "sha256": h.hexdigest(),
    }


def _loss_value_grad(loss, m):
    if loss == "logistic":
        return np.logaddexp(0.0, -m), -expit(-m)
    if loss == "hinge_q2":
        r = np.maximum(0.0, 1.0 - m)
        return r * r, -2.0 * r
    raise ValueError("oracle has no loss %r" % (loss,))


@dataclass(frozen=True)
class Oracle:
    """Reference optimum of sum_l h(y_l <x_l, w>) + lam ||w||_1."""

    f_star: float
    kkt: float
    nonzeros: int
    seconds: float


def oracle(X, y, lam, loss):
    """F* by L-BFGS-B on w = a - b with a, b >= 0; no proxsplit code involved.

    The KKT residual is the largest violation of the l1 optimality
    conditions at the returned point, with coordinates below 1e-9 in
    magnitude taken as zero.
    """
    X = sp.csr_matrix(X)
    N = X.shape[1]

    def f(z):
        w = z[:N] - z[N:]
        val, g = _loss_value_grad(loss, y * (X @ w))
        grad = X.T @ (y * g)
        return float(val.sum() + lam * z.sum()), np.concatenate([grad + lam, lam - grad])

    start = time.perf_counter()
    res = minimize(
        f,
        np.zeros(2 * N),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * N),
        options={"maxiter": 50000, "maxfun": 100000, "ftol": 1e-15, "gtol": 1e-10},
    )
    seconds = time.perf_counter() - start
    w = res.x[:N] - res.x[N:]
    w[np.abs(w) < 1e-9] = 0.0
    _, g = _loss_value_grad(loss, y * (X @ w))
    grad = X.T @ (y * g)
    nz = w != 0.0
    viol = np.where(nz, np.abs(grad + lam * np.sign(w)), np.maximum(np.abs(grad) - lam, 0.0))
    f_star = min(float(res.fun), f(np.concatenate([np.maximum(w, 0), np.maximum(-w, 0)]))[0])
    return Oracle(f_star=f_star, kkt=float(viol.max()), nonzeros=int(nz.sum()), seconds=seconds)
