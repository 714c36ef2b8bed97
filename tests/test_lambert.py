"""Tests for the generalized W branch solver.

The forward map v = w*(e^w + r) is trivial to evaluate, so the inverse is
checked almost entirely through round trips: pick w, push it forward,
recover it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit.errors import ConvergenceError, DomainError


def test_forward_map_values():
    assert px.forward_map(1.0, 1.0) == pytest.approx(math.e + 1.0, abs=1e-15)
    assert px.forward_map(0.05, 2.0) == pytest.approx(2.0 * (math.exp(2.0) + 0.05), abs=1e-12)
    assert px.forward_map(2.0, -1.0) == pytest.approx(-(math.exp(-1.0) + 2.0), abs=1e-15)
    assert px.forward_map(3.7, 0.0) == 0.0


def test_eval_w_at_zero():
    res = px.eval_w(5.0, 0.0)
    assert res.value == 0.0
    assert res.residual == 0.0
    assert res.iterations == 0


def test_round_trip_nonnegative_w():
    # inverse property on a log grid of r and a spread of w >= 0
    for r in np.logspace(-4.0, 4.0, 9):
        for w in np.linspace(0.0, 20.0, 15):
            v = px.forward_map(r, w)
            res = px.eval_w(r, v)
            assert abs(res.value - w) <= 1e-10 * max(1.0, abs(w)), (r, w)
            assert abs(px.forward_map(r, res.value) - v) <= 1e-12 * max(1.0, abs(v))


def test_round_trip_negative_w():
    # negative w is admissible once r >= e^-2
    for r in (math.exp(-2.0), 0.2, 1.0, 50.0):
        for w in np.linspace(-8.0, -0.25, 12):
            v = px.forward_map(r, w)
            assert v < 0.0
            res = px.eval_w(r, v)
            assert abs(res.value - w) <= 1e-10 * max(1.0, abs(w)), (r, w)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
       v=st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)),
       negative=st.booleans())
@example(r=math.exp(-2.0), v=1e6, negative=True)
def test_round_trip_on_random_r_and_v(r, v, negative):
    # below r = e^-2 only v >= 0 is admissible
    if negative and r >= px.R_MONOTONE:
        v = -v
    res = px.eval_w(r, v)
    assert abs(res.residual) <= 1e-12 * max(1.0, abs(v))
    assert abs(px.forward_map(r, res.value) - v) <= 2e-12 * max(1.0, abs(v))


def test_monotone_in_v():
    rng = np.random.Generator(np.random.PCG64(7))
    for r in (1e-3, 1.0, 1e3):
        vs = np.sort(rng.uniform(0.0, 50.0, 40))
        ws = [px.eval_w(r, v).value for v in vs]
        assert all(a < b for a, b in zip(ws, ws[1:]))


def test_result_is_frozen():
    res = px.eval_w(1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0


def test_residual_within_tolerance():
    for r, v in ((0.5, 3.0), (2.0, 0.7), (1e3, 40.0)):
        res = px.eval_w(r, v)
        assert res.residual <= 1e-12 * max(1.0, abs(v))
        assert res.iterations >= 1


def test_known_value_matches_logistic_prox():
    # w*(e^w + 1) = 1 is the same equation as p = sigma(-p), the logistic
    # prox at v=0, gamma=1
    res = px.eval_w(1.0, 1.0)
    assert res.value == pytest.approx(0.40105813754154701, abs=5e-16)


def test_monotone_threshold_constant():
    assert px.R_MONOTONE == math.exp(-2.0)


def test_rejects_bad_r():
    with pytest.raises(DomainError, match="positive"):
        px.eval_w(0.0, 1.0)
    with pytest.raises(DomainError, match="positive"):
        px.eval_w(-1.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        px.eval_w(math.inf, 1.0)
    with pytest.raises(DomainError, match="finite"):
        px.eval_w(math.nan, 1.0)


def test_rejects_bad_v():
    with pytest.raises(DomainError, match="finite"):
        px.eval_w(1.0, math.nan)
    # below r = e^-2 the map is not injective for v < 0, so only v >= 0
    # is accepted there
    with pytest.raises(DomainError, match="v >= 0"):
        px.eval_w(0.13, -0.1)
    assert px.eval_w(0.13, 0.5).value > 0.0


def test_iteration_cap_raises():
    with pytest.raises(ConvergenceError):
        px.eval_w(1.0, 5.0, max_iters=1)
