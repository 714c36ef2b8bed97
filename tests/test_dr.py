"""Tests for the splitting solver: config resolution, preconditioner,
single iterations against hand-computed values, masking, determinism,
convergence behavior, and the simplified single-block variant."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from hypothesis import given, settings, strategies as st

import proxsplit as px
from proxsplit import dr, model
from proxsplit.errors import DomainError, NumericalError
from conftest import NoRowGatherKernels, make_problem, tiny_problem
from oracles import resolvent_matrix


def small_problem():
    return make_problem(6, 8, 3, lam=0.4, seed=11)


# ---------------------------------------------------------- resolve_config

def test_resolve_config_broadcasts():
    prob = small_problem()
    res = px.resolve_config(prob, px.DRConfig(tau=2.0, gamma=0.5, rho=1.0, mu=np.float64(1.2)))
    assert (res.tau, res.gamma, res.rho, res.mu) == (2.0, 0.5, 1.0, 1.2)
    assert all(type(x) is float for x in (res.tau, res.gamma, res.rho, res.mu, res.inv1p))
    assert res.inv1p == pytest.approx(1.0 / 1.5)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(tau=0.0), "tau must be positive"),
    (dict(tau=[1.0, -1.0, 1.0]), "tau must be positive"),
    (dict(gamma=-2.0), "gamma must be positive"),
    (dict(rho=-0.1), "rho must be nonnegative"),
    (dict(rho=10.0), r"B\*beta\*rho <= 1 violated"),
    (dict(gamma=np.ones(8)), "gamma must be positive, finite and a scalar"),
    (dict(mu=lambda i: 1.5), r"mu must lie in \(0.49, 1.51\) and be a scalar"),
    (dict(mu=2.0), "mu must lie in"),
    (dict(mu=0.1), "mu must lie in"),
    (dict(batch_size=0), "batch_size must lie in"),
    (dict(batch_size=9), "batch_size must lie in"),
    (dict(primal_activation=0), "primal_activation"),
    (dict(primal_activation=4), "primal_activation"),
    (dict(v_update_variant="bogus"), "v_update_variant"),
    (dict(trace_stride=0), "trace_stride"),
    (dict(tau=[1.0, 2.0, 3.0]), "tau must be positive, finite and a scalar"),
    (dict(rho=(0.1,)), "rho must be nonnegative, finite and a scalar"),
    (dict(gamma="1.0x"), "gamma must be positive, finite and a scalar"),
    (dict(primal_activation=1.7), r"primal_activation .* and be an integer, got 1.7"),
])
def test_resolve_config_rejects(kwargs, msg):
    with pytest.raises(DomainError, match=msg):
        px.resolve_config(small_problem(), px.DRConfig(**kwargs))


def test_gamma_rho_product_bound():
    prob = small_problem()
    with pytest.raises(DomainError, match=r"gamma\*rho < 1 violated"):
        px.resolve_config(prob, px.DRConfig(gamma=2.0, rho=0.5))


def test_rho_forced_to_zero_for_hinge():
    prob = make_problem(6, 8, 3, lam=0.4, seed=11, loss=px.ScalarLoss.HINGE_Q1)
    with pytest.warns(UserWarning, match="rho forced to 0"):
        res = px.resolve_config(prob, px.DRConfig(rho=0.5))
    assert np.all(res.rho == 0.0)


def test_run_resolves_its_config_once():
    prob = make_problem(6, 8, 3, lam=0.4, seed=11, loss=px.ScalarLoss.HINGE_Q2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        px.run(prob, px.DRConfig(rho=0.1, max_iters=3, trace_stride=1))
    assert [str(w.message).split(":")[0] for w in caught] == ["rho forced to 0"]


# -------------------------------------------------------- preconditioner

def test_preconditioner_single_sample_matrix():
    prob = tiny_problem()
    cfg = px.DRConfig(tau=1.0, gamma=1.0, rho=0.0)
    pre = px.build_preconditioner(prob, cfg)
    assert np.array_equal(resolvent_matrix(prob, cfg, 0), np.array([[2.0]]))
    assert np.allclose(pre.apply(0, np.array([1.0])), np.array([0.5]))


def test_preconditioner_gamma_rho_weight():
    # c = gamma/(1+gamma*rho) = 0.5/1.5, so M = 1 + tau/3
    prob = tiny_problem()
    cfg = px.DRConfig(tau=3.0, gamma=0.5, rho=1.0)
    pre = px.build_preconditioner(prob, cfg)
    assert np.allclose(resolvent_matrix(prob, cfg, 0), np.array([[2.0]]), atol=1e-15)
    assert np.allclose(pre.apply(0, np.array([1.0])), np.array([0.5]))


def test_preconditioner_zero_block_is_identity():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
    prob = px.Problem(data=px.TrainingSet(features=X, labels=np.array([1.0, -1.0])),
                      partition=px.BlockPartition.contiguous(2, 2),
                      reg=px.RegularizerSpec(lam=0.1), loss=px.ScalarLoss.LOGISTIC)
    pre = px.build_preconditioner(prob, px.DRConfig())
    assert np.array_equal(resolvent_matrix(prob, px.DRConfig(), 1), np.eye(1))
    assert np.array_equal(pre.factors[1][0], np.eye(1))


def test_preconditioner_solves_its_own_matrix():
    prob = make_problem(7, 12, 3, lam=0.2, seed=21)
    cfg = px.DRConfig(tau=2.0, gamma=1.3, rho=0.2)
    pre = px.build_preconditioner(prob, cfg)
    rng = np.random.Generator(np.random.PCG64(1))
    for b, sl in enumerate(prob.partition.slices()):
        z = rng.standard_normal(sl.stop - sl.start)
        z_in = z.copy()
        back = resolvent_matrix(prob, cfg, b) @ pre.apply(b, z)
        assert np.array_equal(z, z_in)  # the solve works on its own copy
        assert np.max(np.abs(back - z)) <= 1e-10 * max(1.0, np.max(np.abs(z)))


def _bench_inputs():
    """perfbench's seeded input generators, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_problem(shape):
    """The seed-1 problem of the w8a-train (4 x 75^2 blocks) or
    wide-fullbatch (one 2000^2 block) benchmark, with its step parameters."""
    inputs = _bench_inputs()
    if shape == "w8a":
        X, y = inputs.w8a_like(1)
        blocks, loss, cfg = 4, px.ScalarLoss.LOGISTIC, px.DRConfig(gamma=0.03, rho=0.1)
    else:
        X, y = inputs.wide_gaussian(1)
        blocks, loss, cfg = 1, px.ScalarLoss.HINGE_Q2, px.DRConfig()
    prob = px.Problem(data=px.TrainingSet(features=X, labels=y),
                      partition=px.BlockPartition.contiguous(X.shape[1], blocks),
                      reg=px.RegularizerSpec(lam=1.0), loss=loss)
    return prob, cfg


def _assert_factors_are_the_oracle_factors(prob, cfg):
    # the in-place build must give the factor of the plain sparse Gram's
    # resolvent bit for bit
    pre = px.build_preconditioner(prob, cfg)
    assert len(pre.factors) == prob.num_blocks
    for b, (F, lower) in enumerate(pre.factors):
        ref, _ = cho_factor(resolvent_matrix(prob, cfg, b), lower=True)
        assert lower and F.flags.f_contiguous
        assert np.array_equal(np.tril(F).view(np.uint64), np.tril(ref).view(np.uint64))
        # only the lower triangle is built: above each panel's diagonal
        # square, F holds none of M's upper triangle
        n = F.shape[0]
        width = min(n, max(1, dr._PANEL_ENTRIES // n))
        for k0 in range(width, n, width):
            assert not np.any(F[:k0, k0:k0 + width])


@pytest.mark.parametrize("shape", ["w8a", "wide"])
def test_preconditioner_factors_match_the_sparse_gram_on_bench_blocks(shape):
    _assert_factors_are_the_oracle_factors(*_bench_problem(shape))


@st.composite
def gram_problems(draw):
    """Small problems whose blocks span several Gram panels: empty columns,
    stored zeros, unsorted or int64 index arrays, c != 1."""
    N, L = draw(st.integers(1, 12)), draw(st.integers(1, 15))
    B = draw(st.integers(1, N))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    dense = rng.standard_normal((L, N)) * (rng.random((L, N)) < draw(st.floats(0.0, 1.0)))
    dense[:, rng.random(N) < 0.2] = 0.0  # empty columns, unless a zero is stored
    stored_zero = (dense == 0.0) & (rng.random((L, N)) < 0.2)
    rows, cols = np.nonzero((dense != 0.0) | stored_zero)
    X = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(L, N))
    if draw(st.booleans()):  # unsorted column indices within each row
        for i in range(L):
            seg = slice(X.indptr[i], X.indptr[i + 1])
            order = rng.permutation(X.indptr[i + 1] - X.indptr[i])
            X.indices[seg], X.data[seg] = X.indices[seg][order], X.data[seg][order]
        X.has_sorted_indices = False
    index_types = draw(st.sampled_from([(np.int32, np.int32), (np.int64, np.int64),
                                        (np.int64, np.int32)]))
    X.indptr, X.indices = (X.indptr.astype(index_types[0]), X.indices.astype(index_types[1]))
    y = np.where(rng.random(L) < 0.5, 1.0, -1.0)
    prob = px.Problem(data=px.TrainingSet(features=X, labels=y),
                      partition=px.BlockPartition.contiguous(N, B),
                      reg=px.RegularizerSpec(lam=0.1), loss=px.ScalarLoss.LOGISTIC)
    gamma = draw(st.floats(1e-2, 1e2))
    cfg = px.DRConfig(tau=draw(st.floats(1e-2, 1e2)), gamma=gamma,
                      rho=min(draw(st.floats(0.0, 0.9)), 0.9 / gamma, 4.0 / B))
    return prob, cfg, draw(st.integers(1, 30))


@settings(max_examples=150, deadline=None)
@given(case=gram_problems())
def test_preconditioner_factors_match_the_sparse_gram_across_panels(case):
    prob, cfg, panel_entries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dr, "_PANEL_ENTRIES", panel_entries)
        _assert_factors_are_the_oracle_factors(prob, cfg)


def test_preconditioner_build_holds_one_matrix_one_csc_copy_and_one_panel():
    # a one-block 20000 x 600 problem: the build may hold M, the block's
    # CSC copy, one panel of the Gram product and the rows' cuts at once,
    # and nothing more
    # (no sparse Gram, no copy of M for the factorization); 64 KiB cover
    # the interpreter's own small objects
    rng = np.random.Generator(np.random.PCG64(3))
    L, n = 20_000, 600
    X = sp.random(L, n, density=0.01, format="csr", random_state=rng)
    prob = px.Problem(data=px.TrainingSet(features=X, labels=np.ones(L)),
                      partition=px.BlockPartition.contiguous(n, 1),
                      reg=px.RegularizerSpec(lam=1.0), loss=px.ScalarLoss.HINGE_Q2)
    csc = prob.data.features.tocsc()
    csc_bytes = csc.indptr.nbytes + csc.indices.nbytes + csc.data.nbytes
    width = min(n, dr._PANEL_ENTRIES // n)
    assert width < n <= 2 * width  # two panels
    panel_bytes = (width + 1 + width * n) * csc.indices.itemsize + width * n * 8
    # the cut rows: the 2L + 1 interleaved row pointers, the first panel's
    # cut counts (np.bincount's intp over 2L slots) and the intp copy that
    # np.bincount makes of that panel's int32 row indices; the last panel
    # needs no cut, and the int32 indices need no widening copy
    assert csc.indices.itemsize == 4
    cut_bytes = (2 * L + 1) * csc.indices.itemsize + 2 * L * 8 + csc.indptr[width] * 8
    del csc
    tracemalloc.start()
    try:
        pre = px.build_preconditioner(prob, px.DRConfig())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 + csc_bytes + panel_bytes + cut_bytes + 64 * 1024
    assert held < n * n * 8 + 64 * 1024
    assert pre.factors[0][0].shape == (n, n)


@pytest.mark.parametrize("shape", ["w8a", "wide"])
def test_preconditioner_apply_matches_cho_solve_on_bench_blocks(shape):
    prob, cfg = _bench_problem(shape)
    pre = px.build_preconditioner(prob, cfg)
    rng = np.random.Generator(np.random.PCG64(2))
    for b in range(prob.num_blocks):
        for _ in range(3):
            z = rng.standard_normal(pre.factors[b][0].shape[0])
            x = pre.apply(b, z)
            ref = cho_solve(pre.factors[b], z)
            assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), m=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(1e-3, 1e3), gamma=st.floats(1e-3, 1e3), rho=st.floats(0.0, 0.9),
       scale=st.floats(1e-3, 1e3))
def test_preconditioner_apply_is_backward_stable(n, m, seed, tau, gamma, rho, scale):
    # M = I + tau X^T diag(c) X; the residual of a backward stable solve
    # is a small multiple of n eps (|M| |x| + |z|)
    rng = np.random.Generator(np.random.PCG64(seed))
    X = scale * rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    prob = px.Problem(data=px.TrainingSet(features=sp.csr_matrix(X), labels=y),
                      partition=px.BlockPartition.contiguous(n, 1),
                      reg=px.RegularizerSpec(lam=0.1), loss=px.ScalarLoss.LOGISTIC)
    cfg = px.DRConfig(tau=tau, gamma=gamma, rho=min(rho, 0.9 / gamma))
    pre = px.build_preconditioner(prob, cfg)
    M = resolvent_matrix(prob, cfg, 0)
    z = rng.standard_normal(n)
    x = pre.apply(0, z)
    norm = np.linalg.norm
    eps = np.finfo(float).eps
    assert norm(M @ x - z, np.inf) <= 8 * n * eps * (norm(M, np.inf) * norm(x, np.inf) + norm(z, np.inf))


def test_preconditioner_factors_are_fortran_ordered():
    # BLAS reads a Fortran-ordered factor in place; a C-ordered one would
    # be copied on every solve
    prob = make_problem(7, 12, 3, lam=0.2, seed=21)
    pre = px.build_preconditioner(prob, px.DRConfig())
    for F, lower in pre.factors:
        assert F.flags.f_contiguous and lower


@pytest.mark.parametrize("z", [np.ones(4), np.ones(2), np.ones((3, 1)), np.ones((1, 3)),
                               np.ones((3, 3)), np.float64(1.0), np.ones(0)])
def test_preconditioner_apply_rejects_a_right_hand_side_of_another_shape(z):
    # block 0 has 3 coordinates; the BLAS solve would read only a prefix
    # of a longer vector without a word
    prob = make_problem(7, 12, 3, lam=0.2, seed=21)
    pre = px.build_preconditioner(prob, px.DRConfig())
    with pytest.raises(DomainError, match=r"block 0 solve needs a vector of shape \(3,\)"):
        pre.apply(0, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_preconditioner_apply_rejects_nonfinite_rhs(bad):
    prob = make_problem(7, 12, 3, lam=0.2, seed=21)
    pre = px.build_preconditioner(prob, px.DRConfig())
    z = np.ones(3)
    z[1] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        pre.apply(0, z)


@pytest.mark.parametrize("rows, panel_entries", [
    ([[1e200, 1.0], [2.0, 1e200]], dr._PANEL_ENTRIES),  # one panel
    ([[1.0, 0.0], [0.0, 1e200]], 1),  # two panels; only the last one overflows
])
def test_preconditioner_rejects_nonfinite_matrix_at_build(rows, panel_entries, monkeypatch):
    # tau * gram overflows, so the resolvent matrix itself is not finite
    monkeypatch.setattr(dr, "_PANEL_ENTRIES", panel_entries)
    X = sp.csr_matrix(np.array(rows))
    prob = px.Problem(data=px.TrainingSet(features=X, labels=np.array([1.0, -1.0])),
                      partition=px.BlockPartition.contiguous(2, 1),
                      reg=px.RegularizerSpec(lam=0.1), loss=px.ScalarLoss.LOGISTIC)
    with pytest.raises(px.FactorizationError, match="block 0 resolvent factorization failed: "
                                                    "array must not contain infs or NaNs"):
        px.build_preconditioner(prob, px.DRConfig())


def test_index_type_widens_to_int64_only_when_the_cut_pointers_do_not_fit(monkeypatch):
    # the interleaved row pointers of the cut rows number 2L + 1
    counts = []
    real = dr._index_type

    def spy(count, *arrays):
        counts.append(count)
        return real(count, *arrays)

    monkeypatch.setattr(dr, "_index_type", spy)
    prob = make_problem(7, 12, 3, lam=0.2, seed=21)
    px.build_preconditioner(prob, px.DRConfig())
    assert counts == [2 * prob.n_samples + 1] * prob.num_blocks
    i32, i64 = np.zeros(1, np.int32), np.zeros(1, np.int64)
    assert real(2**31 - 1, i32, i32, i32, i32) == np.int32
    assert real(2**31, i32, i32, i32, i32) == np.int64
    assert real(2**31 - 1, i32, i64, i32, i32) == np.int64
    assert real(2**63 - 1, i64, i64, i64, i64) == np.int64


def test_preconditioner_rejects_nonfinite_factor_at_build(monkeypatch):
    real = dr.cho_factor

    def poisoned(M, lower, **kwargs):
        c, low = real(M, lower=lower, **kwargs)
        c[-1, -1] = np.nan
        return c, low

    monkeypatch.setattr(dr, "cho_factor", poisoned)
    with pytest.raises(px.FactorizationError, match="block 0 resolvent factor is not finite"):
        px.build_preconditioner(small_problem(), px.DRConfig())


# -------------------------------------------------------------- init_state

def test_init_state_zero_start():
    prob = small_problem()
    state = px.init_state(prob, px.DRConfig(), np.zeros(6), np.zeros((8, 3)))
    assert np.array_equal(state.w, np.zeros(6))
    assert np.array_equal(state.t, np.zeros(6))
    assert np.array_equal(state.v, np.zeros((8, 3)))
    assert np.array_equal(state.u, np.zeros(6))
    assert state.iteration == 0


def test_init_state_aggregates_s0():
    prob = tiny_problem()
    state = px.init_state(prob, px.DRConfig(gamma=1.0, rho=0.0), np.zeros(1), np.array([[3.0]]))
    assert np.array_equal(state.u, np.array([3.0]))
    state2 = px.init_state(prob, px.DRConfig(gamma=0.5, rho=1.0), np.zeros(1), np.array([[3.0]]))
    assert np.allclose(state2.u, np.array([2.0]))  # 3 / (1 + 0.5)


def test_init_state_shape_errors():
    prob = small_problem()
    with pytest.raises(DomainError, match=r"t0 must have shape \(6,\)"):
        px.init_state(prob, px.DRConfig(), np.zeros(5), np.zeros((8, 3)))
    with pytest.raises(DomainError, match=r"s0 must have shape \(8, 3\)"):
        px.init_state(prob, px.DRConfig(), np.zeros(6), np.zeros((3, 8)))


def test_dual_aggregate_formula():
    prob = small_problem()
    cfg = px.DRConfig(gamma=1.3, rho=0.2)
    rng = np.random.Generator(np.random.PCG64(2))
    s = rng.standard_normal((8, 3))
    got = px.dual_aggregate(prob, cfg, s)
    X = prob.data.features.toarray()
    y = prob.data.labels
    want = np.zeros(6)
    for b, sl in enumerate(prob.partition.slices()):
        for ell in range(8):
            want[sl] += y[ell] * X[ell, sl] * s[ell, b] / (1.0 + 1.3 * 0.2)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_dual_aggregate_rejects_misshapen_s():
    prob = small_problem()
    for bad in (np.zeros(8), np.zeros((8, 4)), np.zeros((3, 8))):
        with pytest.raises(DomainError, match=r"s must have shape \(8, 3\)"):
            px.dual_aggregate(prob, px.DRConfig(), bad)


# ----------------------------------------------------------- one iteration

def test_single_iteration_literal_by_hand():
    prob = tiny_problem()
    cfg = px.DRConfig(tau=1.0, gamma=1.0, rho=0.0, mu=1.5, v_update_variant="literal")
    pre = px.build_preconditioner(prob, cfg)
    state = px.init_state(prob, cfg, t0=np.zeros(1), s0=np.zeros((1, 1)))
    px.dr_iterate(state, prob, pre, cfg, np.ones(2), 1.5)
    q = px.prox_logistic(0.0, 1.0)
    assert state.w[0] == 0.0
    assert state.t[0] == 0.0
    assert state.v[0, 0] == 0.0
    assert abs(state.s[0, 0] - (-1.5 * q)) <= 1e-12
    assert abs(state.u[0] - (-1.5 * q)) <= 1e-12
    assert state.iteration == 1


def test_iterate_epsilon_validation():
    prob = small_problem()
    cfg = px.DRConfig()
    pre = px.build_preconditioner(prob, cfg)
    state = px.init_state(prob, cfg, np.zeros(6), np.zeros((8, 3)))
    with pytest.raises(DomainError, match=r"length B \+ L = 11"):
        px.dr_iterate(state, prob, pre, cfg, np.ones(5), 1.5)
    with pytest.raises(DomainError, match="0 or 1"):
        px.dr_iterate(state, prob, pre, cfg, np.full(11, 0.5), 1.5)
    with pytest.raises(DomainError, match="at least one"):
        px.dr_iterate(state, prob, pre, cfg, np.zeros(11), 1.5)


def test_non_finite_primal_update_names_the_first_bad_block_and_leaves_t():
    # factors of blocks 1 and 2 with a 1e-200 diagonal send a solve to inf
    prob = small_problem()
    cfg = px.DRConfig(tau=0.7, gamma=1.2, rho=0.1)
    res = px.resolve_config(prob, cfg)
    pre = px.build_preconditioner(prob, cfg)
    for b in (1, 2):
        F = np.asfortranarray(np.eye(2) * 1e-200)
        pre.factors[b] = (F, True)
    state = px.init_state(prob, cfg, np.ones(6), np.ones((8, 3)))
    t, s, u = state.t.copy(), state.s.copy(), state.u.copy()
    for act_b, bad in (([2, 0, 1], 2), ([0, 1, 2], 1)):
        with pytest.raises(NumericalError, match="non-finite primal update in block %d" % bad):
            dr._iterate(state, prob, pre, res, np.array(act_b), np.arange(8), 1.5)
        assert np.array_equal(state.t, t) and np.array_equal(state.s, s)
        assert np.array_equal(state.u, u) and state.iteration == 0
    with pytest.raises(NumericalError, match="non-finite primal update in block 1"):
        px.dr_iterate(state, prob, pre, cfg, np.r_[np.ones(3), np.zeros(8)], 1.5)


def test_masked_iteration_touches_only_active_coords():
    prob = small_problem()
    cfg = px.DRConfig(tau=0.7, gamma=1.2, rho=0.1)
    pre = px.build_preconditioner(prob, cfg)
    rng = np.random.Generator(np.random.PCG64(3))
    state = px.init_state(prob, cfg, t0=rng.standard_normal(6),
                          s0=rng.standard_normal((8, 3)))
    for _ in range(30):
        eps = np.zeros(11)
        eps[rng.integers(0, 3)] = 1.0
        eps[3 + rng.integers(0, 8, size=3)] = 1.0
        before = (state.w.copy(), state.t.copy(), state.v.copy(), state.s.copy())
        px.dr_iterate(state, prob, pre, cfg, eps, 1.5)
        for b, sl in enumerate(prob.partition.slices()):
            if eps[b] == 0.0:
                assert np.array_equal(state.w[sl], before[0][sl])
                assert np.array_equal(state.t[sl], before[1][sl])
        for ell in range(8):
            if eps[3 + ell] == 0.0:
                assert np.array_equal(state.v[ell], before[2][ell])
                assert np.array_equal(state.s[ell], before[3][ell])
        # u stays consistent with the full recomputation from s
        u_full = px.dual_aggregate(prob, cfg, state.s)
        assert np.max(np.abs(state.u - u_full)) <= 1e-8 * max(1.0, np.max(np.abs(u_full)))


@st.composite
def masked_runs(draw):
    """A small problem, a DR config and a list of non-empty masks for it."""
    B = draw(st.integers(1, 4))
    N, L = draw(st.integers(B, 8)), draw(st.integers(1, 10))
    loss = draw(st.sampled_from(list(px.ScalarLoss)))
    rho = draw(st.floats(0.01, 0.6)) if loss is px.ScalarLoss.LOGISTIC else 0.0
    prob = make_problem(N, L, B, lam=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 99)),
                        kappa=draw(st.sampled_from((1, 2))), loss=loss)
    cfg = px.DRConfig(tau=draw(st.floats(0.2, 2.0)), gamma=draw(st.floats(0.3, 1.5)), rho=rho,
                      v_update_variant=draw(st.sampled_from(("literal", "refreshed"))))
    mask = st.lists(st.booleans(), min_size=B + L, max_size=B + L).filter(any)
    masks = draw(st.lists(mask.map(lambda m: np.array(m, dtype=float)), min_size=1, max_size=6))
    return prob, cfg, masks, draw(st.floats(0.5, 1.5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=masked_runs())
def test_masked_iteration_invariants_property(case):
    # criterion 11 on random problems, losses, variants and masks
    prob, cfg, masks, mu, seed = case
    B, L = prob.num_blocks, prob.n_samples
    pre = px.build_preconditioner(prob, cfg)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = px.init_state(prob, cfg, rng.standard_normal(prob.n_features),
                          rng.standard_normal((L, B)))
    for eps in masks:
        before = (state.w.copy(), state.t.copy(), state.v.copy(), state.s.copy())
        px.dr_iterate(state, prob, pre, cfg, eps, mu)
        for b, sl in enumerate(prob.partition.slices()):
            if eps[b] == 0.0:
                assert np.array_equal(state.w[sl], before[0][sl])
                assert np.array_equal(state.t[sl], before[1][sl])
        idle = eps[B:] == 0.0
        assert np.array_equal(state.v[idle], before[2][idle])
        assert np.array_equal(state.s[idle], before[3][idle])
        u_full = px.dual_aggregate(prob, cfg, state.s)
        assert np.max(np.abs(state.u - u_full)) <= 1e-8 * max(1.0, np.max(np.abs(u_full)))


def test_full_sample_mask_uses_the_matrix_without_gather(monkeypatch):
    # The full mask on prob takes the no-gather path.  prob_pad adds an
    # all-zero sample, which leaves the resolvents bitwise unchanged, and a
    # mask over the original samples there takes the gather path.
    prob = small_problem()
    X = prob.data.features
    padded = sp.vstack([X, sp.csr_matrix((1, 6))], format="csr")
    prob_pad = px.Problem(data=px.TrainingSet(features=padded,
                                              labels=np.append(prob.data.labels, 1.0)),
                          partition=prob.partition, reg=prob.reg, loss=prob.loss)
    cfg = px.DRConfig(tau=0.7, gamma=1.2, rho=0.1)
    pre = px.build_preconditioner(prob, cfg)
    pre_pad = px.build_preconditioner(prob_pad, cfg)
    assert len(pre.factors) == len(pre_pad.factors) == 3
    for (F, _), (F_pad, _) in zip(pre.factors, pre_pad.factors):
        assert np.array_equal(F.view(np.uint64), F_pad.view(np.uint64))
    rng = np.random.Generator(np.random.PCG64(5))
    t0, s0 = rng.standard_normal(6), rng.standard_normal((8, 3))
    full = px.init_state(prob, cfg, t0, s0)
    part = px.init_state(prob_pad, cfg, t0, np.vstack([s0, np.zeros((1, 3))]))
    eps_full = np.ones(3 + 8)
    eps_part = np.append(eps_full, 0.0)
    kernels = model._sparsetools
    for _ in range(5):
        monkeypatch.setattr(model, "_sparsetools", NoRowGatherKernels(kernels))
        px.dr_iterate(full, prob, pre, cfg, eps_full, 1.5)
        monkeypatch.setattr(model, "_sparsetools", kernels)
        px.dr_iterate(part, prob_pad, pre_pad, cfg, eps_part, 1.5)
        assert np.array_equal(full.w, part.w)
        assert np.array_equal(full.t, part.t)
        assert np.array_equal(full.u, part.u)
        assert np.array_equal(full.v, part.v[:8])
        assert np.array_equal(full.s, part.s[:8])


# -------------------------------------------------------------- run / trace

def test_run_is_deterministic_given_seed():
    prob = small_problem()
    cfg = px.DRConfig(batch_size=3, primal_activation=2, seed=42, max_iters=60,
                      trace_stride=10)
    w1, tr1 = px.run(prob, cfg)
    w2, tr2 = px.run(prob, cfg)
    assert np.array_equal(w1, w2)
    assert [r.objective for r in tr1.records] == [r.objective for r in tr2.records]
    w3, _ = px.run(prob, px.DRConfig(batch_size=3, primal_activation=2, seed=43,
                                     max_iters=60, trace_stride=10))
    assert not np.array_equal(w1, w3)


def test_run_callback_sees_one_based_iterations():
    prob = small_problem()
    seen = []
    px.run(prob, px.DRConfig(max_iters=5, trace_stride=1),
           callback=lambda i, w: seen.append((i, w.copy())))
    assert [i for i, _ in seen] == [1, 2, 3, 4, 5]
    assert all(w.shape == (6,) for _, w in seen)


def test_run_trace_structure_and_reference_column():
    prob = small_problem()
    w_ref, _ = px.run(prob, px.DRConfig(max_iters=800, trace_stride=200))
    w, tr = px.run(prob, px.DRConfig(max_iters=100, trace_stride=10), reference=w_ref)
    iters = [r.iteration for r in tr.records]
    assert iters == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert all(r.dist_ref is not None for r in tr.records)
    assert tr.records[-1].dist_ref < tr.records[0].dist_ref
    assert tr.final is tr.records[-1]
    secs = [r.seconds for r in tr.records]
    assert all(b >= a for a, b in zip(secs, secs[1:]))


@pytest.mark.parametrize("batch", [None, 8, 3])
def test_run_keeps_no_v_and_draws_no_full_batch(batch, monkeypatch):
    prob = small_problem()
    steps, draws = [], []
    iterate, sampler = dr._iterate, dr.sample_without_replacement

    def spy_iterate(state, problem, precond, res, act_b, act_l, mu):
        steps.append((state.v is None, act_l is None))
        return iterate(state, problem, precond, res, act_b, act_l, mu)

    def spy_sampler(rng, pool, k):
        draws.append(k)
        return sampler(rng, pool, k)

    monkeypatch.setattr(dr, "_iterate", spy_iterate)
    monkeypatch.setattr(dr, "sample_without_replacement", spy_sampler)
    px.run(prob, px.DRConfig(batch_size=batch, seed=4, max_iters=6, trace_stride=2))
    full = batch != 3
    assert steps == [(True, full)] * 6
    assert draws == ([] if full else [3] * 6)


@pytest.mark.parametrize("variant", ["refreshed", "literal"])
def test_full_batch_run_gives_the_bits_of_a_dr_iterate_loop(variant):
    prob = small_problem()
    cfg = px.DRConfig(tau=0.7, gamma=1.2, rho=0.1, mu=1.3, v_update_variant=variant,
                      seed=9, max_iters=20, trace_stride=5)
    w, tr = px.run(prob, cfg)
    pre = px.build_preconditioner(prob, cfg)
    state = px.init_state(prob, cfg, px.make_rng(9).standard_normal(6), np.zeros((8, 3)))
    for _ in range(20):
        px.dr_iterate(state, prob, pre, cfg, np.ones(3 + 8), cfg.mu)
    assert np.array_equal(w, px.extract_solution(state, prob, cfg))
    assert tr.final.objective == px.objective(prob, state.w)


def test_run_from_no_s0_gives_the_bits_of_a_zero_s0(monkeypatch):
    prob = small_problem()
    cfg = px.DRConfig(tau=0.7, gamma=1.2, rho=0.1, batch_size=3, primal_activation=2,
                      seed=6, max_iters=30, trace_stride=10)
    w_given, tr_given = px.run(prob, cfg, s0=np.zeros((8, 3)))
    aggregate = dr._aggregate
    calls = []

    def spy(*args):
        calls.append(args)
        return aggregate(*args)

    monkeypatch.setattr(dr, "_aggregate", spy)
    w, tr = px.run(prob, cfg)
    assert calls == []
    assert np.array_equal(w, w_given)
    assert [r.objective for r in tr.records] == [r.objective for r in tr_given.records]


def test_seeded_run_gives_the_same_bits_in_two_fresh_processes():
    # one 200-coordinate block: its factor has other bits under two BLAS
    # threads than under one, so both processes pin one thread
    script = """
import numpy as np, scipy.sparse as sp, proxsplit as px
rng = np.random.Generator(np.random.PCG64(17))
X = rng.standard_normal((600, 200)) * (rng.random((600, 200)) < 0.3)
y = np.where(X @ rng.standard_normal(200) >= 0, 1.0, -1.0)
prob = px.Problem(px.TrainingSet(sp.csr_matrix(X), y), px.BlockPartition.contiguous(200, 1),
                  px.RegularizerSpec(lam=0.5))
w, _ = px.run(prob, px.DRConfig(gamma=0.1, rho=0.1, batch_size=40, seed=3, max_iters=40))
print(w.tobytes().hex())
"""
    src = str(Path(px.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outs = [subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120, check=True).stdout.strip()
            for _ in range(2)]
    assert len(outs[0]) == 2 * 8 * 200
    assert outs[0] == outs[1]


def test_objective_trend_deterministic_run():
    # full activation, deterministic: the objective settles monotonically
    prob = make_problem(10, 40, 2, lam=1.0, seed=31)
    _, tr = px.run(prob, px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5,
                                     max_iters=400, trace_stride=1))
    objs = np.array([r.objective for r in tr.records])
    running_min = np.minimum.accumulate(objs)
    late = slice(50, None)
    assert np.all(objs[late] - running_min[late] <= 1e-9 * np.maximum(1.0, running_min[late]))
    tail = objs[-100:]
    assert (tail.max() - tail.min()) <= 1e-8 * max(1.0, abs(tail[-1]))


def test_plateau_stops_early():
    prob = make_problem(10, 40, 2, lam=1.0, seed=31)
    _, tr = px.run(prob, px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5,
                                     max_iters=5000, trace_stride=1,
                                     plateau_window=25, plateau_rtol=1e-9))
    assert tr.extra["stop_reason"] == "plateau"
    assert tr.final.iteration < 5000
    assert px.plateau_hit(tr, 25, 1e-9)


def test_separable_problem_drives_objective_down_without_plateau():
    # lam=0 with one separable sample: no finite minimizer, the margin and
    # the iterate grow while the objective decays toward zero
    prob = tiny_problem(lam=0.0)
    w, tr = px.run(prob, px.DRConfig(tau=1.0, gamma=1.0, rho=0.0, mu=1.5,
                                     max_iters=2000, trace_stride=100,
                                     plateau_window=5, plateau_rtol=1e-10))
    assert tr.final.objective < 1e-2
    assert abs(w[0]) > 5.0
    assert tr.extra["stop_reason"] == "budget"


# --------------------------------------------------------- extract_solution

def test_extract_solution_zero_lambda():
    prob = small_problem()
    cfg = px.DRConfig()
    prob0 = make_problem(6, 8, 3, lam=0.0, seed=11)
    state = px.init_state(prob0, cfg, np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0]),
                          np.zeros((8, 3)))
    state.w[:] = np.array([0.3, 1.0, -0.2, 0.1, 0.0, 2.0])
    assert np.array_equal(px.extract_solution(state, prob0, cfg),
                          2.0 * state.w - state.t)


def test_extract_solution_exact_zeros():
    prob = small_problem()  # lam = 0.4, kappa 1
    cfg = px.DRConfig(tau=2.0)
    state = px.init_state(prob, cfg, np.zeros(6), np.zeros((8, 3)))
    state.w[:] = np.array([0.3, -0.2, 0.05, 1.5, -0.01, 0.4])
    z = 2.0 * state.w - state.t
    out = px.extract_solution(state, prob, cfg)
    thresh = 2.0 * 0.4
    assert np.all(out[np.abs(z) <= thresh] == 0.0)
    assert np.array_equal(out, px.reg_prox(prob, z, 2.0))


def test_fixed_point_certificate_at_convergence():
    prob = make_problem(8, 30, 2, lam=0.5, seed=5)
    cfg = px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5, max_iters=2000,
                      trace_stride=500)
    w, _ = px.run(prob, cfg)
    assert px.kkt_residual(prob, w) <= 1e-5
    assert px.sparsity_degree(w, tol=0.0) > 0.0  # l1 produced exact zeros


# ------------------------------------------------------------ simplified

def test_run_simplified_preconditions():
    multi = small_problem()
    with pytest.raises(DomainError, match="single block"):
        px.run_simplified(multi, px.DRConfig())
    single = make_problem(6, 8, 1, lam=0.4, seed=11)
    with pytest.raises(DomainError, match="rho = 0"):
        px.run_simplified(single, px.DRConfig(rho=0.1))


def test_run_simplified_two_iterations_by_hand():
    prob = tiny_problem()
    cfg = px.DRConfig(tau=1.0, gamma=1.0, rho=0.0, mu=1.5, max_iters=2, trace_stride=1)
    seen = []
    w_hat, _ = px.run_simplified(prob, cfg, t0=np.zeros(1), st0=np.zeros(1),
                                 callback=lambda i, w: seen.append(float(w[0])))
    q = px.prox_logistic(0.0, 1.0)
    assert seen[0] == 0.0
    assert abs(seen[1] - 0.75 * q) <= 1e-12
    assert abs(float(w_hat[0]) - 0.375 * q) <= 1e-12


def test_simplified_matches_full_when_gamma_is_inverse_tau():
    prob = make_problem(6, 20, 1, lam=0.3, seed=17)
    iters_full, iters_simpl = [], []
    cfg_full = px.DRConfig(tau=2.0, gamma=0.5, rho=0.0, mu=1.5, max_iters=100,
                           trace_stride=50, seed=9)
    cfg_simpl = px.DRConfig(tau=2.0, gamma=0.5, rho=0.0, mu=1.5, max_iters=100,
                            trace_stride=50, seed=9)
    w_full, _ = px.run(prob, cfg_full,
                       callback=lambda i, w: iters_full.append(w.copy()))
    w_simpl, _ = px.run_simplified(prob, cfg_simpl,
                                   callback=lambda i, w: iters_simpl.append(w.copy()))
    dev = max(np.max(np.abs(a - b)) for a, b in zip(iters_full, iters_simpl))
    assert dev <= 1e-10
    assert np.max(np.abs(w_full - w_simpl)) <= 1e-10


def test_simplified_state_mapping():
    # st0 = -tau * s0 reproduces the full solver started from s0
    prob = make_problem(6, 20, 1, lam=0.3, seed=17)
    rng = np.random.Generator(np.random.PCG64(8))
    t0 = rng.standard_normal(6)
    s0 = rng.standard_normal((20, 1))
    cfg = px.DRConfig(tau=1.5, gamma=1.0 / 1.5, rho=0.0, mu=1.2, max_iters=40,
                      trace_stride=20, seed=4)
    full, simpl = [], []
    px.run(prob, cfg, t0=t0, s0=s0, callback=lambda i, w: full.append(w.copy()))
    px.run_simplified(prob, cfg, t0=t0, st0=-1.5 * s0[:, 0],
                      callback=lambda i, w: simpl.append(w.copy()))
    dev = max(np.max(np.abs(a - b)) for a, b in zip(full, simpl))
    assert dev <= 1e-10
