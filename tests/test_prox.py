"""Tests for scalar loss proxes, regularizer proxes, and loss primitives.

The logistic prox has no elementary closed form, so it is checked against
a bisection oracle, against the bracketed Newton kernel it replaced, and
against correctly rounded constants computed with 60-digit arithmetic.
Tolerances are a few ulp, never bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

import proxsplit as px
from proxsplit import prox
from proxsplit.errors import ConvergenceError, DomainError
from conftest import FINITE_FLOATS
from oracles import (
    PROX_CONJ_5_2,
    PROX_LOGISTIC_0_1,
    PROX_LOGISTIC_10_1,
    PROX_LOGISTIC_25_05,
    PROX_LOGISTIC_HUGE,
    PROX_LOGISTIC_M20_2,
    PROX_LOGISTIC_M30_1,
    PROX_LOGISTIC_TAIL_12,
    PROX_LOGISTIC_TAIL_16,
    central_difference,
    clamp_open_interval,
    logistic_loss_logaddexp,
    prox_by_minimization,
    prox_logistic_bisect,
    prox_logistic_bracketed,
    prox_logistic_fine_stop,
    prox_logistic_newton_allocating,
)

LOSSES = (px.ScalarLoss.LOGISTIC, px.ScalarLoss.HINGE_Q1,
          px.ScalarLoss.HINGE_Q2, px.ScalarLoss.HUBER)
CLOSED_FORM_LOSSES = LOSSES[1:]

# |p - p_bracketed| / max(1, gamma) over v in [-700, 700], gamma in
# [1e-3, 1e3].  The bracketed kernel stops once its bracket is 4 ulp of
# max(1, |p|) wide, up to 6.2e-13 * max(1, gamma) on that domain; the
# log-space kernel's residual, which bounds its error, stays under 2.3e-13
# on criterion 2's 100k points.
DEVIATION_BOUND = 1e-12
# the prox scale of the splitting solver on the w8a-shaped benchmark:
# B * (1 - gamma * rho) / gamma with B = 4, gamma = 0.03, rho = 0.1
DR_SCALE = 4 * (1 - 0.03 * 0.1) / 0.03

V_WIDE = st.floats(-700.0, 700.0)
GAMMA_WIDE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def logistic_residual(p, v, gamma):
    return abs(p - v - gamma * expit(-p))


def rounding_slack(v, gamma):
    """A few ulp of the largest magnitude the logistic optimality condition
    adds up: the attainable absolute accuracy of p."""
    return 8.0 * np.finfo(float).eps * (1.0 + abs(v) + gamma)


# ---------------------------------------------------------------- logistic

def test_logistic_prox_frozen_values():
    assert px.prox_logistic(0.0, 1.0) == pytest.approx(PROX_LOGISTIC_0_1, abs=5e-16)
    assert px.prox_logistic(10.0, 1.0) == pytest.approx(PROX_LOGISTIC_10_1, abs=1e-14)
    assert px.prox_logistic(2.5, 0.5) == pytest.approx(PROX_LOGISTIC_25_05, abs=5e-15)
    assert px.prox_logistic(-30.0, 1.0) == pytest.approx(PROX_LOGISTIC_M30_1, abs=1e-12)
    assert px.prox_logistic(-20.0, 2.0) == pytest.approx(PROX_LOGISTIC_M20_2, abs=1e-12)
    # p - v and v + gamma - p near 1e20 with p far below them
    assert px.prox_logistic(-1e20, 1e20) == pytest.approx(PROX_LOGISTIC_HUGE, abs=1e-13)
    # gamma + v = -36 with gamma * e^(gamma+v) at 2.3 and 2.3e-4: the
    # two-term expansion, summed at the scale of v, is off by 0.92 and 1.2e-5
    assert px.prox_logistic(-1.0000000000000036e16, 1e16) == pytest.approx(
        PROX_LOGISTIC_TAIL_16, abs=1e-13)
    assert px.prox_logistic(-1000000000036.0, 1e12) == pytest.approx(
        PROX_LOGISTIC_TAIL_12, abs=1e-13)


def test_logistic_prox_against_bisection():
    rng = np.random.Generator(np.random.PCG64(0))
    v = rng.uniform(-30.0, 30.0, 300)
    gamma = 10.0 ** rng.uniform(-3.0, 3.0, 300)
    p = px.prox_logistic(v, gamma)
    for vi, gi, pi in zip(v, gamma, p):
        assert abs(pi - prox_logistic_bisect(vi, gi)) <= 1e-10 * max(1.0, abs(pi))


def test_logistic_prox_residual_and_bracket():
    rng = np.random.Generator(np.random.PCG64(1))
    v = rng.uniform(-700.0, 700.0, 2000)
    gamma = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    with np.errstate(over="raise", invalid="raise"):
        p = px.prox_logistic(v, gamma)
        res = p - v - gamma / (np.exp(p) + 1.0)
    assert np.all(np.isfinite(p))
    assert np.all(p > v) and np.all(p < v + gamma)  # open interval, strict
    assert np.max(np.abs(res)) <= 1e-10


def test_logistic_prox_vector_matches_scalar():
    v = np.array([-5.0, 0.0, 0.3, 12.0])
    gamma = np.array([2.0, 1.0, 0.1, 5.0])
    batch = px.prox_logistic(v, gamma)
    singles = np.array([px.prox_logistic(vi, gi) for vi, gi in zip(v, gamma)])
    assert np.array_equal(batch, singles)
    # one scalar gamma, as the splitting solver passes it, and the same
    # value broadcast to an array give the same bits
    rng = np.random.Generator(np.random.PCG64(9))
    v = rng.uniform(-150.0, 25.0, 10_000)
    assert np.array_equal(px.prox_logistic(v, DR_SCALE), px.prox_logistic(v, np.full(v.size, DR_SCALE)))
    out = px.prox_logistic(0.0, 1.0)
    assert isinstance(out, float)


def test_logistic_prox_tail_handoff_is_continuous():
    # no seam where gamma + v crosses -35, the old switch to the expansion
    for gamma in (0.5, 1.0, 2.0):
        left = px.prox_logistic(-35.2, gamma)
        right = px.prox_logistic(-34.8, gamma)
        assert abs((right - left) - 0.4) <= 1e-9


def test_logistic_asymptotic_matches_exact_tail():
    for v in np.linspace(-40.0, -25.0, 31):
        for gamma in (0.5, 1.0, 2.0):
            a = px.prox_logistic_asymptotic(v, gamma)
            t = v + gamma
            expected = v + gamma * (1.0 - math.exp(t) + (1.0 + gamma) * math.exp(2.0 * t))
            assert a == pytest.approx(expected, abs=1e-15)
            assert abs(a - px.prox_logistic(v, gamma)) <= 1e-12


def test_logistic_prox_extreme_arguments():
    p = px.prox_logistic(700.0, 1.0)
    assert 700.0 < p < 701.0
    q = px.prox_logistic(-700.0, 1.0)
    assert -700.0 < q < -699.0
    assert q == pytest.approx(-699.0, abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(v=V_WIDE, gamma=GAMMA_WIDE)
@example(v=-150.0, gamma=DR_SCALE)
@example(v=-130.0, gamma=DR_SCALE)
@example(v=-100.0, gamma=DR_SCALE)
@example(v=-5.4, gamma=DR_SCALE)
@example(v=25.0, gamma=DR_SCALE)
# F''/2F' is about 34 here: a Newton stop at steps of 1e-4 left the gap
# 3.4e-7 off and p 12 ulps off, a residual above the rounding slack
@example(v=-241.0, gamma=10.0 ** 2.9375)
def test_logistic_prox_tracks_bracketed_kernel(v, gamma):
    with np.errstate(over="raise", invalid="raise"):
        p = px.prox_logistic(v, gamma)
        ref = float(prox_logistic_bracketed(v, gamma)[0])
    assert abs(p - ref) <= DEVIATION_BOUND * max(1.0, gamma)
    assert v < p < v + gamma
    assert logistic_residual(p, v, gamma) <= max(logistic_residual(ref, v, gamma),
                                                 rounding_slack(v, gamma))


@settings(max_examples=300, deadline=None)
@given(v=V_WIDE, gamma=GAMMA_WIDE)
@example(v=-150.0, gamma=DR_SCALE)
@example(v=-5.4, gamma=DR_SCALE)
@example(v=25.0, gamma=DR_SCALE)
def test_logistic_prox_tracks_the_fine_stop_kernel(v, gamma):
    # stopping at steps of 1e-6 instead of 1e-8 saves a sweep; the closing
    # step in p squares what the earlier stop leaves
    with np.errstate(over="raise", invalid="raise"):
        p = px.prox_logistic(v, gamma)
        ref = float(prox_logistic_fine_stop(v, gamma))
    assert abs(p - ref) <= DEVIATION_BOUND * max(1.0, gamma)


@settings(max_examples=200, deadline=None)
@given(exponent=st.floats(3.0, 300.0), ratio=st.floats(-1.5, 0.5))
# u = log(p - v) near -5e14 carries rounding noise of +-0.06, so its steps
# never fall to STEP_TOL; only the rule that a step which rounds away
# settles the element stops the loop
@example(exponent=15.0, ratio=0.5)
@example(exponent=300.0, ratio=-1.0)
def test_logistic_prox_tracks_the_fine_stop_kernel_at_huge_scale(exponent, ratio):
    gamma = 10.0 ** exponent
    v = ratio * gamma
    with np.errstate(over="raise", invalid="raise"):
        p = px.prox_logistic(v, gamma)
        ref = float(prox_logistic_fine_stop(v, gamma))
    assert abs(p - ref) <= DEVIATION_BOUND * gamma


@pytest.mark.parametrize("v, gamma, expected", [
    # p rounds onto v; the next double up lies inside (v, v + gamma)
    (1e16, 4.0, np.nextafter(1e16, np.inf)),
    # the mirror image: p rounds onto v + gamma = -1e16
    (-1e16 - 8.0, 8.0, np.nextafter(-1e16, -np.inf)),
    # v + gamma rounds to v, so no double lies strictly inside
    (1e16, 1.0, np.nextafter(1e16, np.inf)),
    (-1e16, 1.0, np.nextafter(-1e16, np.inf)),
])
def test_logistic_prox_moves_an_endpoint_to_the_next_double(v, gamma, expected):
    kernel = float(prox._prox_logistic_newton(np.asarray(v), np.asarray(gamma)))
    assert kernel in (v, v + gamma)
    assert px.prox_logistic(v, gamma) == expected
    # in a batch, the other elements keep the bits of their scalar calls
    batch = px.prox_logistic(np.array([v, 0.0, -3.0]), gamma)
    assert batch[0] == expected
    assert np.array_equal(batch[1:], [px.prox_logistic(0.0, gamma), px.prox_logistic(-3.0, gamma)])


# values the kernel gave before its sweeps moved into preallocated buffers
@pytest.mark.parametrize("v, gamma, bits", [
    (0.0, 1.0, "0x1.9aaefc0224781p-2"),
    (10.0, 1.0, "0x1.40005f33b056ep+3"),
    (-30.0, 1.0, "-0x1.d000000000048p+4"),
    (2.5, 0.5, "0x1.44b16608cc142p+1"),
    (-66.5, 132.93333333333334, "-0x1.fe8121b990f74p-11"),
    (-1e20, 1e20, "-0x1.52743c03772eep+5"),
    (1e16, 4.0, "0x1.1c37937e08001p+53"),
    (-3.0, 1e-3, "-0x1.7fe0c99717021p+1"),
])
def test_logistic_prox_of_a_scalar_is_a_float_with_fixed_bits(v, gamma, bits):
    for args in ((v, gamma), (np.float64(v), np.asarray(gamma)), (np.asarray(v), np.asarray(gamma))):
        p = px.prox_logistic(*args)
        assert type(p) is float and p.hex() == bits


@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
       scale=st.floats(-3.0, 3.0), per_element=st.booleans(), seed=st.integers(0, 2**16))
@example(v=[1e16, -1e16, 0.0, -0.0], scale=0.0, per_element=False, seed=0)
# the oracle is the kernel frozen; any rewrite of the kernel must keep its bits
def test_newton_kernel_gives_the_bits_of_the_allocating_one(v, scale, per_element, seed):
    v = np.array(v, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    gamma = 10.0 ** (scale + (rng.uniform(-3.0, 3.0, v.shape) if per_element else 0.0))
    want = prox_logistic_newton_allocating(v, np.asarray(gamma))
    got = prox._prox_logistic_newton(v, np.asarray(gamma))
    assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
    for x, g in zip(v[:3], np.broadcast_to(gamma, v.shape)[:3]):  # 0-d input
        got = prox._prox_logistic_newton(np.asarray(x), np.asarray(g))
        assert got.ndim == 0 and float(got).hex() == float(
            prox_logistic_newton_allocating(np.asarray(x), np.asarray(g))).hex()


def test_logistic_prox_clamp_gives_the_bits_of_the_eager_clamp():
    # the clamp runs only when some p is not strictly inside; the result is
    # bitwise the clamp applied to every element, as before
    rng = np.random.Generator(np.random.PCG64(16))
    draws = [(rng.uniform(-700.0, 700.0, 5000), 10.0 ** rng.uniform(-3.0, 3.0, 5000)),
             (rng.uniform(-150.0, 25.0, 5000), DR_SCALE)]
    v = rng.uniform(-700.0, 700.0, 5000)
    v[::500] = 1e16  # p rounds onto an endpoint, so this call clamps
    draws.append((v, 1.0))
    for v, gamma in draws:
        kernel = prox._prox_logistic_newton(v, np.asarray(gamma))
        assert np.array_equal(px.prox_logistic(v, gamma), clamp_open_interval(kernel, v, gamma))


@settings(max_examples=200, deadline=None)
@given(exponent=st.floats(3.0, 300.0), ratio=st.floats(-1.5, 0.5))
@example(exponent=20.0, ratio=-0.5)
# the loop's p is 2^55, one ulp of gamma/2 off the root 0; the closing
# step must not round the logs away at that ulp
@example(exponent=32.5, ratio=-0.5)
@example(exponent=300.0, ratio=-1.0)
def test_logistic_prox_huge_scale(exponent, ratio):
    # both gaps p - v and v + gamma - p can be far larger than p itself,
    # so p must not be read off either one to its own precision alone
    gamma = 10.0 ** exponent
    v = ratio * gamma
    with np.errstate(over="raise", invalid="raise"):
        p = px.prox_logistic(v, gamma)
    assert v < p < v + gamma
    assert abs(p - prox_logistic_bisect(v, gamma, iters=1100)) <= 1e-13 * gamma
    if ratio == -0.5:
        assert abs(p) <= 1e-12  # the root is 0 when v = -gamma/2


@settings(max_examples=200, deadline=None)
@given(v1=V_WIDE, v2=V_WIDE, gamma=GAMMA_WIDE)
@example(v1=-130.0, v2=-129.0, gamma=DR_SCALE)
def test_logistic_prox_firmly_nonexpansive_and_monotone(v1, v2, gamma):
    p1, p2 = px.prox_logistic(np.array([v1, v2]), gamma)
    err = rounding_slack(max(abs(v1), abs(v2)), gamma)
    d, dv = p1 - p2, v1 - v2
    assert d * d <= d * dv + 2.0 * err * (2.0 * abs(d) + abs(dv)) + 4.0 * err * err
    if v1 <= v2:
        assert p1 <= p2 + 2.0 * err


@settings(max_examples=200, deadline=None)
@given(v=st.floats(-50.0, 50.0), sigma=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))
@example(v=5.0, sigma=2.0)
def test_logistic_conjugate_prox_moreau_identity(v, sigma):
    # h*(s) = (-s) log(-s) + (1+s) log(1+s) on [-1, 0], so q = prox of
    # sigma*h* at v solves v - q = sigma * log((1+q)/(-q)), that is
    # q = -expit((q - v)/sigma), independently of the primal prox
    direct = px.prox_logistic(v / sigma, 1.0 / sigma)
    q = px.prox_conjugate(px.prox_logistic, v, sigma)
    assert -1.0 <= q <= 0.0
    assert abs(q + sigma * direct - v) <= 4.0 * np.finfo(float).eps * (1.0 + abs(v))
    assert abs(q + expit((q - v) / sigma)) <= 8.0 * np.finfo(float).eps * (1.0 + abs(v)) * (1.0 + 1.0 / sigma)


def test_logistic_prox_converges_in_few_sweeps(monkeypatch):
    # the start lies right of the root and the Newton iterates fall
    # monotonically onto it; four sweeps cover these draws, one is spare
    monkeypatch.setattr(prox, "NEWTON_MAX_ITERS", 5)
    rng = np.random.Generator(np.random.PCG64(6))
    v = rng.uniform(-700.0, 700.0, 20_000)
    gamma = 10.0 ** rng.uniform(-3.0, 3.0, 20_000)
    with np.errstate(over="raise", invalid="raise"):
        px.prox_logistic(v, gamma)


def test_logistic_prox_takes_four_sweeps_at_dr_scale(monkeypatch):
    # the w8a-train step's gamma over its range of v: the stop at steps of
    # STEP_TOL ends every element within four sweeps, with none spare
    monkeypatch.setattr(prox, "NEWTON_MAX_ITERS", 4)
    rng = np.random.Generator(np.random.PCG64(6))
    with np.errstate(over="raise", invalid="raise"):
        px.prox_logistic(rng.uniform(-150.0, 25.0, 20_000), DR_SCALE)


def test_logistic_prox_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(prox, "NEWTON_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
        px.prox_logistic(0.0, 1.0)
    # deep in the tail the start already solves the equation to rounding,
    # so the first sweep stops
    assert -50.0 < px.prox_logistic(-50.0, 1.0) < -49.0


# ---------------------------------------------------------- hinge and huber

def test_hinge_q1_prox_values():
    assert px.prox_hinge(0.8, 0.5, 1) == 1.0
    assert px.prox_hinge(2.0, 1.0, 1) == 2.0       # above the kink: identity
    assert px.prox_hinge(-1.0, 0.5, 1) == -0.5     # full step on the linear part
    assert px.prox_hinge(1.0, 3.0, 1) == 1.0


def test_hinge_q2_prox_values():
    assert px.prox_hinge(0.0, 1.0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert px.prox_hinge(5.0, 2.0, 2) == 5.0
    # smooth case: (v + 2*gamma) / (1 + 2*gamma) below the margin
    assert px.prox_hinge(-2.0, 0.25, 2) == pytest.approx(-1.0, abs=1e-15)


def test_huber_prox_values():
    assert px.prox_huber(-5.0, 1.0) == -4.0
    assert px.prox_huber(0.0, 2.0) == 0.5
    assert px.prox_huber(3.0, 5.0) == 3.0


@pytest.mark.parametrize("loss", LOSSES)
def test_prox_matches_scalar_minimization(loss):
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(40):
        v = rng.uniform(-6.0, 6.0)
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
        got = px.loss_prox(loss, v, gamma)
        want = prox_by_minimization(lambda p: px.loss_value(loss, p), v, gamma)
        assert abs(got - want) <= 1e-6, (loss, v, gamma)


@pytest.mark.parametrize("loss", LOSSES)
def test_prox_firmly_nonexpansive(loss):
    rng = np.random.Generator(np.random.PCG64(4))
    for gamma in (0.2, 1.0, 7.0):
        a = rng.uniform(-15.0, 15.0, 50)
        b = rng.uniform(-15.0, 15.0, 50)
        pa = px.loss_prox(loss, a, gamma)
        pb = px.loss_prox(loss, b, gamma)
        lhs = (pa - pb) ** 2
        rhs = (pa - pb) * (a - b)
        assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("loss", CLOSED_FORM_LOSSES)
@settings(max_examples=300, deadline=None)
@given(a=st.floats(-15.0, 15.0), b=st.floats(-15.0, 15.0), gamma=st.floats(0.2, 7.0))
@example(a=1.0, b=0.8, gamma=0.2)  # both sides of a hinge kink
@example(a=-1.2, b=-1.25, gamma=0.2)  # both sides of the Huber kink at -1 - gamma
def test_closed_form_prox_firmly_nonexpansive_property(loss, a, b, gamma):
    pa, pb = px.loss_prox(loss, np.array([a, b]), gamma)
    d = pa - pb
    assert d * d <= d * (a - b) + 1e-12


# ----------------------------------------------------- regularizer proxes

def test_prox_l1_soft_threshold():
    w = np.array([3.0, -0.5, 0.0, 1.0])
    out = px.prox_l1(w, 1.0)
    assert np.array_equal(out, np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(px.prox_l1(w, 0.0), w)


def test_prox_group_l2_shrinks_by_norm():
    w = np.array([3.0, 4.0])
    assert np.array_equal(px.prox_group_l2(w, 2.5), np.array([1.5, 2.0]))
    assert np.array_equal(px.prox_group_l2(w, 5.0), np.zeros(2))
    assert np.array_equal(px.prox_group_l2(w, 7.0), np.zeros(2))
    assert np.array_equal(px.prox_group_l2(np.zeros(3), 1.0), np.zeros(3))


# Vectors of up to 8 entries, zero or of magnitude in [1e-100, 1e6]: their
# squares neither overflow nor underflow, so the norm and the inner products
# below are accurate to a few ulp.
ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))
VECTOR_PAIRS = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(ENTRY, min_size=n, max_size=n).map(np.array)] * 2))
THRESH = st.one_of(st.just(0.0), st.floats(1e-100, 1e6))
EPS = np.finfo(float).eps


def dual_ball_projection(prox, w, t):
    """The projection onto the dual-norm ball of radius t, which the Moreau
    identity w = prox(w, t) + proj(w) gives: clip for l1, radial for l2."""
    if prox is px.prox_l1:
        return np.clip(w, -t, t)
    nrm = np.linalg.norm(w)
    return w if nrm <= t else w * (t / nrm)


@pytest.mark.parametrize("prox", [px.prox_l1, px.prox_group_l2])
@settings(max_examples=300, deadline=None)
@given(pair=VECTOR_PAIRS, t=THRESH)
@example(pair=(np.array([3.0, 4.0]), np.zeros(2)), t=2.5)
def test_regularizer_prox_moreau_identity_and_firm_nonexpansiveness(prox, pair, t):
    w1, w2 = pair
    p1, p2 = prox(w1, t), prox(w2, t)
    scale = max(np.linalg.norm(w1), np.linalg.norm(w2), t)
    assert np.linalg.norm((w1 - p1) - dual_ball_projection(prox, w1, t)) <= 2.0 * EPS * scale
    d, dw = p1 - p2, w1 - w2
    assert d @ d <= d @ dw + 4.0 * EPS * (scale + t) * np.linalg.norm(dw)


# ------------------------------------------------------- conjugate prox

def test_prox_conjugate_frozen_values():
    got = px.prox_conjugate(lambda z, g: px.prox_logistic(z, g), 5.0, 2.0)
    assert got == pytest.approx(PROX_CONJ_5_2, abs=5e-15)
    got0 = px.prox_conjugate(lambda z, g: px.prox_logistic(z, g), 0.0, 1.0)
    assert got0 == pytest.approx(-PROX_LOGISTIC_0_1, abs=5e-16)


@pytest.mark.parametrize("loss", LOSSES)
def test_moreau_identity(loss):
    rng = np.random.Generator(np.random.PCG64(5))
    v = rng.uniform(-10.0, 10.0, 500)
    for sigma in (0.1, 1.0, 4.0):
        direct = px.loss_prox(loss, v / sigma, 1.0 / sigma)
        conj = px.prox_conjugate(lambda z, g: px.loss_prox(loss, z, g), v, sigma)
        assert np.max(np.abs(conj + sigma * direct - v)) <= 1e-13


@pytest.mark.parametrize("loss", CLOSED_FORM_LOSSES)
@settings(max_examples=300, deadline=None)
@given(v=st.floats(-10.0, 10.0), sigma=st.floats(0.1, 4.0))
@example(v=1.0, sigma=1.0)
@example(v=-2.0, sigma=1.0)
def test_closed_form_moreau_identity_property(loss, v, sigma):
    direct = px.loss_prox(loss, v / sigma, 1.0 / sigma)
    conj = px.prox_conjugate(lambda z, g: px.loss_prox(loss, z, g), v, sigma)
    assert abs(conj + sigma * direct - v) <= 1e-13


# --------------------------------------------------------- loss primitives

def test_loss_values():
    assert px.loss_value(px.ScalarLoss.LOGISTIC, 0.0) == pytest.approx(math.log(2.0), abs=1e-16)
    assert px.loss_value(px.ScalarLoss.LOGISTIC, -800.0) == 800.0  # no overflow
    assert px.loss_value(px.ScalarLoss.LOGISTIC, 800.0) == pytest.approx(0.0, abs=1e-300)
    assert px.loss_value(px.ScalarLoss.HINGE_Q1, 0.25) == 0.75
    assert px.loss_value(px.ScalarLoss.HINGE_Q1, 2.0) == 0.0
    assert px.loss_value(px.ScalarLoss.HINGE_Q2, -1.0) == 4.0
    assert px.loss_value(px.ScalarLoss.HUBER, 0.0) == 0.25
    assert px.loss_value(px.ScalarLoss.HUBER, -5.0) == 5.0
    assert px.loss_value(px.ScalarLoss.HUBER, 1.5) == 0.0


# loss_value(LOGISTIC) runs numpy's vectorised exp and log1p where
# logaddexp calls libm per element; ~1.5e8 draws on an AVX-512 Xeon put
# them at most 3 ulp apart (worst near v = 4.15)
LOSS_ULPS = 4


@settings(max_examples=300, deadline=None)
@given(v=st.lists(FINITE_FLOATS, min_size=1, max_size=40))
@example(v=[-800.0, 0.0, -0.0, 4.1534897929721435, 745.0, 709.8, -709.8, 37.0])
def test_logistic_loss_matches_logaddexp_property(v):
    # lists up to 40 long run the vector loops' full-width body and their tail
    v = np.array(v)
    want = logistic_loss_logaddexp(v)
    with np.errstate(over="raise", invalid="raise"):
        got = px.loss_value(px.ScalarLoss.LOGISTIC, v)
    assert got.shape == v.shape and np.all(got >= 0.0) and np.all(want >= 0.0)
    # for nonnegative doubles the distance of the bit patterns counts ulps
    assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= LOSS_ULPS)


def test_logistic_loss_non_finite_and_extreme_margins():
    v = np.array([np.inf, -np.inf, np.nan, -800.0, 800.0])
    with np.errstate(over="raise", invalid="raise"):
        got = px.loss_value(px.ScalarLoss.LOGISTIC, v)
        one = px.loss_value(px.ScalarLoss.LOGISTIC, -800.0)
    with np.errstate(invalid="ignore"):  # logaddexp itself flags inf - inf
        want = logistic_loss_logaddexp(v)
    assert got[0] == want[0] == 0.0 and got[1] == want[1] == np.inf
    assert np.isnan(got[2]) and np.isnan(want[2])
    assert got[3] == 800.0 and one == 800.0 and isinstance(one, float)
    assert 0.0 <= got[4] <= 1e-300


def test_loss_grads():
    assert px.loss_grad(px.ScalarLoss.LOGISTIC, 0.0) == -0.5
    assert px.loss_grad(px.ScalarLoss.HINGE_Q1, 0.5) == -1.0
    assert px.loss_grad(px.ScalarLoss.HINGE_Q1, 1.0) == 0.0    # kink: flat side
    assert px.loss_grad(px.ScalarLoss.HINGE_Q1, 2.0) == 0.0
    assert px.loss_grad(px.ScalarLoss.HINGE_Q2, 0.0) == -2.0
    assert px.loss_grad(px.ScalarLoss.HUBER, 0.0) == -0.5
    assert px.loss_grad(px.ScalarLoss.HUBER, -3.0) == -1.0
    assert px.loss_grad(px.ScalarLoss.HUBER, 4.0) == 0.0


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_grad_matches_finite_differences(loss):
    # probe away from the kinks at v = 1 and v = -1
    for v in (-3.3, -0.4, 0.2, 0.7, 2.6):
        num = central_difference(lambda p: px.loss_value(loss, p), v)
        assert px.loss_grad(loss, v) == pytest.approx(num, abs=1e-6)


def test_loss_beta():
    assert px.loss_beta(px.ScalarLoss.LOGISTIC) == 0.25
    assert px.loss_beta(px.ScalarLoss.HINGE_Q1) is None
    assert px.loss_beta(px.ScalarLoss.HINGE_Q2) is None
    assert px.loss_beta(px.ScalarLoss.HUBER) is None


def test_loss_prox_dispatch():
    assert px.loss_prox(px.ScalarLoss.LOGISTIC, 0.0, 1.0) == px.prox_logistic(0.0, 1.0)
    assert px.loss_prox(px.ScalarLoss.HINGE_Q1, 0.8, 0.5) == px.prox_hinge(0.8, 0.5, 1)
    assert px.loss_prox(px.ScalarLoss.HINGE_Q2, 0.0, 1.0) == px.prox_hinge(0.0, 1.0, 2)
    assert px.loss_prox(px.ScalarLoss.HUBER, -5.0, 1.0) == px.prox_huber(-5.0, 1.0)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("v", [0.0, np.empty(0)])
def test_rejects_nonpositive_gamma(v):
    # gamma is checked as given, so an empty v does not hide a bad gamma
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            px.prox_logistic(v, bad)
        with pytest.raises(DomainError):
            px.prox_huber(v, bad)
        with pytest.raises(DomainError):
            px.prox_hinge(v, bad, 1)
        with pytest.raises(DomainError):
            px.prox_hinge(v, bad, 2)


def test_rejects_bad_hinge_exponent():
    with pytest.raises(DomainError):
        px.prox_hinge(0.0, 1.0, 3)


def test_rejects_negative_threshold():
    # and any threshold that is not one real number
    for thresh in (-0.5, "1", True, math.nan, np.array([0.5, 0.5]), None):
        for shrink in (px.prox_l1, px.prox_group_l2):
            with pytest.raises(DomainError, match="threshold must be nonnegative and a scalar"):
                shrink(np.ones(2), thresh)


def test_rejects_nonfinite_v():
    with pytest.raises(DomainError):
        px.prox_logistic(math.nan, 1.0)
