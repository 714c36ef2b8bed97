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
kept only as an independent check.
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
    """Monotone Newton on the log of the smaller gap, then one step in p."""
    flip = v < -0.5 * gamma  # p < 0: v + gamma - p is the smaller gap
    a = np.where(flip, -(v + gamma), v)
    log_gamma = np.log(gamma)
    c = log_gamma - a
    # three bounds right of the root: u <= log(gamma), and from
    # u + e^u <= c both u < c and, for c >= 1, one Newton step on that
    # convex equation from log(c), log(c) * c/(1+c); for c < 1, where the
    # step reads 0, u + e^u < 1 forces u < 0 as well
    c1 = np.maximum(c, 1.0)
    u = np.minimum(np.minimum(log_gamma, c), np.log(c1) * (c1 / (1.0 + c1)))
    done = np.zeros(u.shape, dtype=bool)
    for _ in range(NEWTON_MAX_ITERS):
        z = np.exp(u)
        x = a + z
        softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        step = (u + softplus - log_gamma) / (1.0 + z * np.exp(x - softplus))
        u_new = u - step
        # exact Newton only decreases u, so a step that does not is
        # rounding noise at the root: that element is settled.  An element
        # keeps its u once done, so its result does not depend on the batch.
        keep = done | (u_new >= u)
        u = np.where(keep, u, u_new)
        done = keep | (step <= STEP_TOL)
        if done.all():
            break
    else:
        raise ConvergenceError("logistic prox Newton did not converge in %d iterations" % NEWTON_MAX_ITERS)
    z = np.exp(u)
    # the gaps p - v and v + gamma - p, kept off zero for the logs
    tiny = np.finfo(float).tiny
    lo = np.maximum(np.where(flip, gamma - z, z), tiny)
    hi = np.maximum(np.where(flip, z, gamma - z), tiny)
    p = np.where(flip, (v + gamma) - z, v + z)
    # sum the logs first: added one at a time to a p far above them, each
    # would round at p's ulp, and a p of 2^55 at the root 0 would close to 4
    return p - (p + (np.log(lo) - np.log(hi))) / (1.0 + 1.0 / lo + 1.0 / hi)


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
    if not np.all(np.isfinite(g_arr) & (g_arr > 0.0)):
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
    if not np.all(np.asarray(sigma) > 0.0):
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
