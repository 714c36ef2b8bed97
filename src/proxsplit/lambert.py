"""Generalized Lambert W function.

For a parameter r > 0, the generalized W function inverts the map

    w  |->  w * (exp(w) + r).

For r >= exp(-2) the map is strictly increasing on the whole real line and
the inverse is defined for every v.  For 0 < r < exp(-2) the map is no
longer injective; we retain the increasing branch passing through the
origin, which covers every v >= 0.  Evaluation is by safeguarded Newton
iteration (bisection fallback on a sign-changing bracket).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .trace import check_count, check_positive, check_scalar

# below this parameter value the forward map loses monotonicity and only
# the nonnegative part of the increasing branch is kept
R_MONOTONE = math.exp(-2.0)


@dataclass(frozen=True)
class WBranchResult:
    """Outcome of a W evaluation: the branch value plus solve diagnostics."""

    value: float
    residual: float
    iterations: int


def forward_map(r, w):
    """Evaluate w * (exp(w) + r), the map inverted by :func:`eval_w`.

    Overflow of exp(w) propagates as an infinite result rather than an
    exception, so the function is safe to probe during bracketing.
    """
    with np.errstate(over="ignore"):
        return float(w * (np.exp(w) + r))


def eval_w(r, v, tol=1e-12, max_iters=200):
    """Evaluate the increasing branch of the generalized Lambert W function.

    Solves w * (exp(w) + r) = v for w by safeguarded Newton iteration on a
    sign-changing bracket.

    Parameters
    ----------
    r : real number (not a bool, a string or an array)
        Branch parameter, must be > 0.  For r < exp(-2) only v >= 0 is
        admissible (the retained branch covers [0, inf)).
    v : real number
        Right-hand side, must be finite.
    tol : real number
        Residual tolerance, relative to max(1, |v|); positive and finite.
    max_iters : int
        Iteration cap, at least 1; exceeding it raises ConvergenceError.

    Returns
    -------
    WBranchResult
        value w with |w*(exp(w)+r) - v| <= tol * max(1, |v|), the achieved
        residual and the number of iterations spent.
    """
    r = check_scalar("branch parameter r", r, "be positive and finite", lambda x: 0.0 < x < math.inf)
    v = check_scalar("v", v, "be finite", math.isfinite)
    tol = check_positive("tol", tol)
    max_iters = check_count("max_iters", max_iters, 1)
    if r < R_MONOTONE and v < 0.0:
        raise DomainError(
            "for r < exp(-2) the retained branch only covers v >= 0, got v=%r" % v
        )
    if v == 0.0:
        return WBranchResult(0.0, 0.0, 0)

    # bracket with g(lo) <= 0 <= g(hi), g(w) = w*(exp(w)+r) - v
    if v > 0.0:
        lo = 0.0
        # w*exp(w) <= v forces w <= log1p(v)+1; w*r <= v forces w <= v/r
        hi = min(v / r, math.log1p(v) + 1.0)
        for _ in range(64):
            if forward_map(r, hi) >= v:
                break
            hi *= 2.0
    else:
        # w*r >= v for negative roots, and the origin gives g(0) = -v > 0
        lo = v / r
        hi = 0.0

    tol_abs = tol * max(1.0, abs(v))
    w = 0.5 * (lo + hi)
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        ew = math.exp(w) if w < 709.0 else math.inf
        g = w * (ew + r) - v
        if abs(g) <= tol_abs:
            return WBranchResult(w, g, iterations)
        if g > 0.0:
            hi = w
        else:
            lo = w
        gp = ew * (1.0 + w) + r
        step_ok = math.isfinite(g) and math.isfinite(gp) and gp > 0.0
        cand = w - g / gp if step_ok else math.nan
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        w = cand
    raise ConvergenceError(
        "W evaluation did not reach tolerance %g in %d iterations (r=%g, v=%g)"
        % (tol, max_iters, r, v)
    )
