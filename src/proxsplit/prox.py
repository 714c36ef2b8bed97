"""Proximity operators and scalar margin losses.

The logistic prox p of gamma*log(1+exp(-.)) at v solves p - v =
gamma/(exp(p)+1), p = v + W_{exp(-v)}(gamma*exp(-v)) with the generalized
Lambert W of :mod:`proxsplit.lambert`.  Mirrored by v -> -v-gamma, the
same equation gives v + gamma - p, so the kernel solves for whichever gap
is at most gamma/2.  u = log(gap) is the root of the increasing, convex

    F(u) = u + log(1 + exp(v + e^u)) - log(gamma),

so Newton started right of the root, at bounds from
log(1+e^x) >= max(0, x), falls monotonically onto it with no bracket.
Each element takes steps until one is at most STEP_TOL, which it takes,
or one rounds away (settled), which it does not; then it keeps its u, so
its result does not depend on the rest of the batch.  After a step s from
u, the error left is at most (F''/2F') s^2, with F'' at its largest over
[u - s, u] and F' at the root; near the root that factor is below
(1 + gap^2/gamma)/2 <= (1 + gap/2)/2.
A closing Newton step on p + log(p - v) - log(v + gamma - p) = 0 squares
the error again and restores the absolute accuracy e^u loses when the gap
is large.  The same kernel serves every finite input, gamma + v far below
zero included; the two-term expansion :func:`prox_logistic_asymptotic` is
kept only as an independent check.  The sweeps and the closing step reuse
a few buffers allocated once per call, so a sweep allocates nothing.
"""

import enum

import numpy as np
from scipy.special import expit

from .errors import ConvergenceError, DomainError
from .trace import check_scalar

# an element of the log-space Newton is done once its step, the relative
# change of its gap, was at most this or rounded away.  The next error is
# at most (F''/2F') step^2 on the convex, increasing F: under 1e-9 while
# the factor is below 1e3, that is for gaps up to ~4e3.  The closing step
# on the log form, whose curvature factor is at most 1/(2 min(1, gap)),
# leaves at most error^2/2 in p.  A stop at 1e-4 left 3.4e-7 at v = -241,
# gamma = 866, and so 6e-14 in p, 12 ulps; 1e-8 costs a fifth sweep.
STEP_TOL = 1e-6
NEWTON_MAX_ITERS = 200


def prox_logistic(v, gamma):
    """Proximity operator of gamma * log(1 + exp(-.)) at v.

    Parameters
    ----------
    v : float or array
        Evaluation point(s).
    gamma : float or array
        Positive scale, broadcastable against v.

    Returns
    -------
    float or ndarray
        The unique p with p - v = gamma/(exp(p)+1).  The returned value is
        clamped to the open interval (v, v+gamma): when rounding would land
        exactly on an endpoint the nearest interior double is returned.
    """
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not (gamma > 0.0).all():
        raise DomainError("gamma must be positive")
    if not (np.isfinite(v).all() and np.isfinite(gamma).all()):
        raise DomainError("prox_logistic arguments must be finite")
    p = _prox_logistic_newton(v, gamma)
    # the exact solution is strictly interior; keep the float one interior
    # too.  A strictly interior p passes min/max unchanged, so only a p on
    # or past an endpoint needs the clamp.
    if not ((p > v) & (p < v + gamma)).all():
        p = np.maximum(np.minimum(p, np.nextafter(v + gamma, -np.inf)), np.nextafter(v, np.inf))
    if p.ndim == 0:
        return float(p)
    return p


def _prox_logistic_newton(v, gamma):
    """Monotone Newton on the log of the smaller gap, then one step in p.

    The sweeps and the closing step write into buffers allocated once per
    call, and compute the expressions in the comments in their order.
    """
    flip = v < -0.5 * gamma  # p < 0: v + gamma - p is the smaller gap
    vg = v + gamma
    a = np.where(flip, -vg, v)
    log_gamma = np.log(gamma)
    c = log_gamma - a
    shape = np.shape(c)
    # one allocation each; a [i, ...] row stays an array for 0-d input
    floats, flags = np.empty((6,) + shape), np.zeros((2,) + shape, dtype=bool)
    z, x, t, sp, step, u = (floats[i, ...] for i in range(6))
    keep, done = flags[0, ...], flags[1, ...]
    # three bounds right of the root: u <= log(gamma), and from
    # u + e^u <= c both u < c and, for c >= 1, one Newton step on that
    # convex equation from log(c), log(c) * c/(1+c); for c < 1, where the
    # step reads 0, u + e^u < 1 forces u < 0 as well
    c1 = np.maximum(c, 1.0)
    np.minimum(np.minimum(log_gamma, c), np.log(c1) * (c1 / (1.0 + c1)), out=u)
    for _ in range(NEWTON_MAX_ITERS):
        np.exp(u, out=z)
        np.add(a, z, out=x)
        # softplus(x) = max(x, 0) + log1p(exp(-|x|))
        np.maximum(x, 0.0, out=sp)
        np.abs(x, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        sp += t
        # step = (u + softplus - log(gamma)) / (1 + z * exp(x - softplus))
        np.subtract(x, sp, out=t)
        np.exp(t, out=t)
        t *= z
        t += 1.0
        np.add(u, sp, out=step)
        step -= log_gamma
        step /= t
        # exact Newton only decreases u, so a step that does not is
        # rounding noise at the root: that element is settled.  An element
        # keeps its u once done, so its result does not depend on the batch.
        np.subtract(u, step, out=x)  # u_new
        np.greater_equal(x, u, out=keep)
        keep |= done
        np.copyto(x, u, where=keep)
        u, x = x, u  # u = where(keep, u, u_new)
        np.less_equal(step, STEP_TOL, out=done)
        done |= keep
        if np.count_nonzero(done) == done.size:
            break
    else:
        raise ConvergenceError("logistic prox Newton did not converge in %d iterations" % NEWTON_MAX_ITERS)
    np.exp(u, out=z)
    # the gaps lo = p - v and hi = v + gamma - p, kept off zero for the logs
    tiny = np.finfo(float).tiny
    np.subtract(gamma, z, out=x)
    lo, hi = t, sp
    np.copyto(lo, z)
    np.copyto(lo, x, where=flip)
    np.copyto(hi, x)
    np.copyto(hi, z, where=flip)
    np.maximum(lo, tiny, out=lo)
    np.maximum(hi, tiny, out=hi)
    # p = v + z, or (v + gamma) - z where flipped
    p = step
    np.add(v, z, out=p)
    np.subtract(vg, z, out=x)
    np.copyto(p, x, where=flip)
    # p - (p + (log(lo) - log(hi))) / (1 + 1/lo + 1/hi).  Sum the logs
    # first: added one at a time to a p far above them, each would round
    # at p's ulp, and a p of 2^55 at the root 0 would close to 4
    np.log(lo, out=x)
    np.log(hi, out=u)
    x -= u
    x += p
    np.divide(1.0, lo, out=lo)
    lo += 1.0
    np.divide(1.0, hi, out=hi)
    lo += hi
    x /= lo
    p -= x
    return p


def prox_logistic_asymptotic(v, gamma):
    """Two-term expansion v + gamma*(1 - e^(gamma+v) + (1+gamma)*e^(2(gamma+v))).

    It holds only where gamma * e^(gamma+v) is negligible: gamma + v well
    below zero with gamma moderate.  At v = -1.0000000000000036e16,
    gamma = 1e16 it gives -36 against the root -36.92.  prox_logistic does
    not call it; it stays as an independent check of the far tail.
    """
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    t = gamma + v
    with np.errstate(over="ignore"):
        out = v + gamma * (1.0 - np.exp(t) + (1.0 + gamma) * np.exp(2.0 * t))
    if out.ndim == 0:
        return float(out)
    return out


def _closed_form_args(v, gamma):
    """v and gamma as float arrays, gamma checked as given; the formulas
    broadcast them, so a scalar gamma is checked once."""
    g_arr = np.asarray(gamma, dtype=float)
    if not (np.isfinite(g_arr) & (g_arr > 0.0)).all():
        raise DomainError("gamma must be positive and finite")
    return np.asarray(v, dtype=float), g_arr


def prox_hinge(v, gamma, q):
    """Prox of gamma * max(0, 1-v)**q for q in {1, 2} (closed form)."""
    if q not in (1, 2):
        raise DomainError("hinge exponent q must be 1 or 2, got %r" % (q,))
    v_arr, g_arr = _closed_form_args(v, gamma)
    if q == 1:
        out = np.where(v_arr > 1.0, v_arr, np.where(v_arr >= 1.0 - g_arr, 1.0, v_arr + g_arr))
    else:
        out = np.where(v_arr >= 1.0, v_arr, (v_arr + 2.0 * g_arr) / (1.0 + 2.0 * g_arr))
    if out.ndim == 0:
        return float(out)
    return out


def prox_huber(v, gamma):
    """Prox of the one-sided Huber loss (0 for v>=1, -v for v<=-1, quadratic between)."""
    v_arr, g_arr = _closed_form_args(v, gamma)
    out = np.where(
        v_arr >= 1.0,
        v_arr,
        np.where(v_arr <= -1.0 - g_arr, v_arr + g_arr, (2.0 * v_arr + g_arr) / (2.0 + g_arr)),
    )
    if out.ndim == 0:
        return float(out)
    return out


def _check_threshold(thresh):
    return check_scalar("threshold", thresh, "be nonnegative and a scalar", lambda x: x >= 0.0)


def prox_l1(w, thresh):
    """Soft thresholding: sign(w) * max(|w| - thresh, 0), with exact zeros.

    thresh is one real number >= 0; DomainError otherwise.
    """
    thresh = _check_threshold(thresh)
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0)


def prox_group_l2(w, thresh):
    """Block shrinkage (1 - thresh/||w||_2)_+ * w; the zero vector when ||w|| <= thresh.

    thresh is one real number >= 0; DomainError otherwise.
    """
    thresh = _check_threshold(thresh)
    w = np.asarray(w, dtype=float)
    nrm = np.linalg.norm(w)
    if nrm <= thresh:
        return np.zeros_like(w)
    return (1.0 - thresh / nrm) * w


def prox_conjugate(prox_of_h, v, sigma):
    """Prox of sigma * h^* via the Moreau decomposition.

    prox_{sigma h*}(v) = v - sigma * prox_{h/sigma}(v / sigma), where
    prox_of_h(x, gamma) evaluates prox_{gamma h}(x).
    """
    if not (np.asarray(sigma) > 0.0).all():
        raise DomainError("sigma must be positive")
    return v - sigma * prox_of_h(v / sigma, 1.0 / sigma)


class ScalarLoss(enum.Enum):
    """Margin losses h(v) applied to y * <x, w>."""

    LOGISTIC = "logistic"
    HINGE_Q1 = "hinge_q1"
    HINGE_Q2 = "hinge_q2"
    HUBER = "huber"


def loss_value(loss, v):
    """Evaluate the loss elementwise, overflow-safe for extreme margins.

    The logistic loss is log1p(exp(-|v|)) - min(v, 0), the split
    np.logaddexp(0, -v) makes, on numpy's vectorised exp and log1p loops:
    within a few ulps of logaddexp, exact at +-inf, NaN for NaN.
    """
    v = np.asarray(v, dtype=float)
    if loss is ScalarLoss.LOGISTIC:
        out = np.copysign(v, -1.0, out=np.empty_like(v))  # -|v|
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= np.minimum(v, 0.0)
        return out[()] if out.ndim == 0 else out
    if loss is ScalarLoss.HINGE_Q1:
        return np.maximum(0.0, 1.0 - v)
    if loss is ScalarLoss.HINGE_Q2:
        return np.maximum(0.0, 1.0 - v) ** 2
    if loss is ScalarLoss.HUBER:
        return np.where(v >= 1.0, 0.0, np.where(v <= -1.0, -v, 0.25 * (v - 1.0) ** 2))
    raise DomainError("unknown loss %r" % (loss,))


def loss_grad(loss, v):
    """Derivative of the loss; at hinge kinks the zero subgradient side is used."""
    v = np.asarray(v, dtype=float)
    if loss is ScalarLoss.LOGISTIC:
        return -expit(-v)
    if loss is ScalarLoss.HINGE_Q1:
        return np.where(v < 1.0, -1.0, 0.0)
    if loss is ScalarLoss.HINGE_Q2:
        return -2.0 * np.maximum(0.0, 1.0 - v)
    if loss is ScalarLoss.HUBER:
        return np.where(v >= 1.0, 0.0, np.where(v <= -1.0, -1.0, 0.5 * (v - 1.0)))
    raise DomainError("unknown loss %r" % (loss,))


def loss_prox(loss, v, gamma):
    """prox_{gamma h}(v) for the given scalar loss."""
    if loss is ScalarLoss.LOGISTIC:
        return prox_logistic(v, gamma)
    if loss is ScalarLoss.HINGE_Q1:
        return prox_hinge(v, gamma, 1)
    if loss is ScalarLoss.HINGE_Q2:
        return prox_hinge(v, gamma, 2)
    if loss is ScalarLoss.HUBER:
        return prox_huber(v, gamma)
    raise DomainError("unknown loss %r" % (loss,))


def loss_beta(loss):
    """Lipschitz constant of the loss gradient; None marks the losses that
    must run with the rho = 0 limit of the splitting scheme."""
    if loss is ScalarLoss.LOGISTIC:
        return 0.25
    return None
