"""Bitwise equivalence of the solvers' hot path with the naive references
in oracles.py: the collision-replay sampler against in-place scalar swaps,
and the one-gather iteration against a row gather per block.  The row
gather and products on scipy's private kernels must also match the
public scipy calls that run the same kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit import baselines, dr
from proxsplit.bench import SOLVERS
from proxsplit.errors import DomainError
from conftest import make_problem
from oracles import (ScipyRows, block_columns, iterate_per_block, objective_logaddexp, run_per_block,
                     sample_by_swaps, scipy_rows)

LOSSES = (px.ScalarLoss.LOGISTIC, px.ScalarLoss.HINGE_Q2)


# ----------------------------------------------------------------- sampler

@st.composite
def pool_and_count(draw):
    n = draw(st.integers(1, 5000))
    return n, draw(st.integers(1, n))


@settings(max_examples=200, deadline=None)
@given(nk=pool_and_count(), seed=st.integers(0, 2**32 - 1))
# tiny pools, where most steps hit a slot an earlier step moved
@example(nk=(2, 1), seed=0)
@example(nk=(3, 2), seed=1)
@example(nk=(5, 4), seed=2)
@example(nk=(10, 9), seed=3)
@example(nk=(10, 3), seed=4)
@example(nk=(6, 5), seed=2**32 - 1)
def test_sampler_matches_swap_reference(nk, seed):
    n, k = nk
    pool = np.arange(n) * 3 + 7
    ref_pool = pool.copy()
    rng, ref_rng = px.make_rng(seed), px.make_rng(seed)
    for _ in range(3):
        got = px.sample_without_replacement(rng, pool, k)
        want = sample_by_swaps(ref_rng, ref_pool, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # same stream consumed
    assert np.array_equal(pool, np.arange(n) * 3 + 7)  # pool is never written


@pytest.mark.parametrize("k", [0, 11, 2.5, True, "3", None])
def test_sampler_rejects_a_bad_count(k):
    rng = px.make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=r"k must lie in \[1, 10\] and be an integer"):
        px.sample_without_replacement(rng, np.arange(10), k)
    assert rng.bit_generator.state == state


def test_sampler_takes_an_integral_float_count():
    rng, ref_rng = px.make_rng(9), px.make_rng(9)
    got = px.sample_without_replacement(rng, np.arange(10), 2.0)
    assert np.array_equal(got, px.sample_without_replacement(ref_rng, np.arange(10), 2))


def test_sampler_edge_sizes():
    pool = np.arange(50)
    rng, ref_rng = px.make_rng(4), px.make_rng(4)
    for k in (1, 49, 50):
        assert np.array_equal(px.sample_without_replacement(rng, pool, k),
                              sample_by_swaps(ref_rng, pool.copy(), k))
    full = px.sample_without_replacement(rng, pool, 50)
    assert np.array_equal(full, pool) and full is not pool
    assert rng.random() == ref_rng.random()  # k == n drew nothing


# ------------------------------------------------------------- full runs

def _problem(n_features, blocks, kappa, loss, seed, features=None):
    prob = make_problem(n_features, 24, blocks, lam=0.3, seed=seed, kappa=kappa, loss=loss)
    if features is None:
        return prob
    return px.Problem(data=px.TrainingSet(features=features, labels=prob.data.labels),
                      partition=prob.partition, reg=prob.reg, loss=prob.loss)


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 5), kappa=st.sampled_from((1, 2)), loss=st.sampled_from(LOSSES),
       variant=st.sampled_from(("literal", "refreshed")), batch=st.sampled_from((None, 1, 7, 24)),
       primal=st.sampled_from(("all", 1, 2)), seed=st.integers(0, 1000))
def test_run_matches_per_block_reference(blocks, kappa, loss, variant, batch, primal, seed):
    if primal != "all" and primal > blocks:
        primal = blocks
    prob = _problem(11, blocks, kappa, loss, seed)
    cfg = px.DRConfig(tau=0.8, gamma=0.7, rho=0.1 if loss is px.ScalarLoss.LOGISTIC else 0.0,
                      batch_size=batch, primal_activation=primal, v_update_variant=variant,
                      seed=seed, max_iters=25, trace_stride=5)
    seen = []
    w_hat, _ = px.run(prob, cfg, callback=lambda i, w: seen.append(w.copy()))
    ref_hat, ref_state = run_per_block(prob, cfg)
    assert np.array_equal(w_hat, ref_hat)
    assert np.array_equal(seen[-1], ref_state.w)


@settings(max_examples=30, deadline=None)
@given(blocks=st.integers(1, 4), kappa=st.sampled_from((1, 2)), loss=st.sampled_from(LOSSES),
       variant=st.sampled_from(("literal", "refreshed")), seed=st.integers(0, 1000))
def test_iterate_matches_per_block_reference_on_the_whole_state(blocks, kappa, loss, variant, seed):
    # every state array, t included, for unsorted batches, subsets of
    # blocks, the index array 0, ..., L-1 and a full-size permutation, all
    # of which gather
    prob = _problem(9, blocks, kappa, loss, seed)
    cfg = px.DRConfig(tau=1.1, gamma=0.6, v_update_variant=variant)
    res = px.resolve_config(prob, cfg)
    pre = px.build_preconditioner(prob, cfg)
    columns = block_columns(prob)
    rng = np.random.Generator(np.random.PCG64(seed))
    L, B = prob.n_samples, prob.num_blocks
    state = px.init_state(prob, cfg, rng.standard_normal(9), rng.standard_normal((L, B)))
    ref = px.init_state(prob, cfg, state.t, state.s)
    for step in range(12):
        act_b = np.sort(rng.permutation(B)[:rng.integers(1, B + 1)])
        if step % 4 == 0:
            act_l = np.arange(L)
        elif step % 4 == 2:
            act_l = rng.permutation(L)
        else:
            act_l = rng.permutation(L)[:rng.integers(0, L)]
        dr._iterate(state, prob, pre, res, act_b, act_l, 1.3)
        iterate_per_block(ref, prob, pre, res, act_b, act_l, 1.3, columns)
        for name in ("w", "t", "v", "s", "u"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), (step, name)


@st.composite
def mixed_partitions(draw):
    """Block sizes and a kappa per block, l1 and group-l2 mixed."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    return sizes, draw(st.lists(st.sampled_from((1, 2)), min_size=len(sizes), max_size=len(sizes)))


@settings(max_examples=60, deadline=None)
@given(part=mixed_partitions(), loss=st.sampled_from(LOSSES),
       variant=st.sampled_from(("literal", "refreshed")),
       mu=st.floats(0.49, 1.51, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**16), data=st.data())
def test_dr_iterate_matches_per_block_reference_on_mixed_partitions(part, loss, variant, mu, seed,
                                                                    data):
    # random subsets of blocks and samples through the public masked step;
    # the coordinates it does not activate keep their bits
    sizes, kappas = part
    offsets = tuple(np.cumsum([0] + sizes).tolist())
    N, L, B = offsets[-1], 24, len(sizes)
    base = make_problem(N, L, 1, lam=0.3, seed=seed, loss=loss)
    prob = px.Problem(data=base.data, partition=px.BlockPartition(offsets),
                      reg=px.RegularizerSpec(lam=0.3, kappa=tuple(kappas)), loss=loss)
    rho = 0.1 if loss is px.ScalarLoss.LOGISTIC else 0.0
    cfg = px.DRConfig(tau=1.1, gamma=0.6, rho=rho, v_update_variant=variant)
    res = px.resolve_config(prob, cfg)
    pre = px.build_preconditioner(prob, cfg)
    columns = block_columns(prob)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = px.init_state(prob, cfg, rng.standard_normal(N), rng.standard_normal((L, B)))
    ref = px.init_state(prob, cfg, state.t, state.s)
    for step in range(4):
        eps = np.array(data.draw(st.lists(st.booleans(), min_size=B + L, max_size=B + L)), dtype=int)
        if not eps.any():
            eps[0] = 1
        act_b, act_l = np.flatnonzero(eps[:B]), np.flatnonzero(eps[B:])
        before = {name: getattr(state, name).copy() for name in ("w", "t", "v", "s")}
        px.dr_iterate(state, prob, pre, cfg, eps, mu)
        iterate_per_block(ref, prob, pre, res, act_b, act_l, mu, columns)
        for name in ("w", "t", "v", "s", "u"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), (step, name)
        for b, sl in enumerate(prob.partition.slices()):
            if b not in act_b:
                assert np.array_equal(state.w[sl], before["w"][sl]), (step, b)
                assert np.array_equal(state.t[sl], before["t"][sl]), (step, b)
        idle = np.flatnonzero(eps[B:] == 0)
        assert np.array_equal(state.v[idle], before["v"][idle]), step
        assert np.array_equal(state.s[idle], before["s"][idle]), step


@settings(max_examples=200, deadline=None)
@given(m=st.integers(0, 40), B=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_row_sums_are_numpys_row_sums_bit_for_bit(m, B, seed):
    # column adds below 8 columns, numpy's own sum from 8 on; the entries
    # span many binades and include signed zeros, which a sum started from
    # the first column instead of +0 would keep negative
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((m, B)) * 10.0 ** rng.integers(-20, 21, (m, B))
    a[rng.random((m, B)) < 0.3] = -0.0
    a[rng.random((m, B)) < 0.1] = 0.0
    if m:
        a[0] = -0.0  # a row of negative zeros sums to +0
    got = dr._row_sums(a)
    assert got.shape == (m,) and np.array_equal(got.view(np.int64), a.sum(axis=1).view(np.int64))


def _unsorted_copy(X, duplicate=False):
    """X with the column indices of every row reversed; with duplicate, a
    second entry for each row's last column (so X changes) is appended."""
    indices, data, indptr = [], [], [0]
    for i in range(X.shape[0]):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        cols, vals = list(X.indices[lo:hi][::-1]), list(X.data[lo:hi][::-1])
        if duplicate and cols:
            cols.append(cols[0])
            vals.append(vals[0] / 3.0)
        indices += cols
        data += vals
        indptr.append(len(indices))
    out = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                         np.array(indptr, dtype=np.int32)), shape=X.shape)
    out.has_sorted_indices = False
    return out


def _stably_sorted_rows(X):
    """Per row, the (column, value) entries sorted by column with ties in
    stored order."""
    return [sorted(zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()), key=lambda e: e[0])
            for lo, hi in zip(X.indptr[:-1], X.indptr[1:])]


def test_unsorted_csr_input_matches_sorted_and_reference():
    prob = _problem(11, 3, 1, px.ScalarLoss.LOGISTIC, seed=3)
    X = prob.data.features
    assert X.has_sorted_indices
    raw = _unsorted_copy(X)
    assert not raw.has_sorted_indices
    unsorted = _problem(11, 3, 1, px.ScalarLoss.LOGISTIC, seed=3, features=raw)
    cfg = px.DRConfig(rho=0.1, batch_size=9, primal_activation=2, seed=8, max_iters=40)

    # sorted input is shared, not copied
    assert px.TrainingSet(features=X, labels=prob.data.labels).features is X
    copied = unsorted.data.features
    assert copied is not raw and copied.has_sorted_indices
    assert np.array_equal(copied.toarray(), X.toarray())

    w_sorted, _ = px.run(prob, cfg)
    w_unsorted, _ = px.run(unsorted, cfg)
    ref_hat, _ = run_per_block(unsorted, cfg)
    assert np.array_equal(w_unsorted, w_sorted)
    assert np.array_equal(w_unsorted, ref_hat)

    # duplicate entries are summed in the order they are stored
    raw_dup = _unsorted_copy(X, duplicate=True)
    dup = _problem(11, 3, 1, px.ScalarLoss.LOGISTIC, seed=3, features=raw_dup)
    assert _stably_sorted_rows(dup.data.features) == _stably_sorted_rows(raw_dup)
    w_dup, _ = px.run(dup, cfg)
    ref_hat, _ = run_per_block(dup, cfg)
    assert np.array_equal(w_dup, ref_hat)


# ------------------------------------------- sparse kernels against scipy

def _index_sets(rng, L):
    """Index sets of every kind TrainingSet.rows takes: a single row, a
    mini-batch, a batch one short, 0..L-1 in order, a full-size
    permutation and draws with repeats."""
    for step in range(60):
        kind = step % 6
        if kind == 3:
            yield np.arange(L)
        elif kind == 4:
            yield rng.permutation(L)
        elif kind == 5:
            yield rng.integers(0, L, size=rng.integers(1, 2 * L))
        else:
            yield rng.permutation(L)[:(1, 37, L - 1)[kind]]


def test_rows_match_the_public_scipy_calls():
    rng = np.random.Generator(np.random.PCG64(12))
    X = sp.random(300, 40, density=0.1, format="csr", random_state=3)
    data = px.TrainingSet(features=X, labels=np.where(rng.random(300) < 0.3, 1.0, -1.0))
    for step, act_l in enumerate(_index_sets(rng, 300)):
        rows, ref = data.rows(act_l), ScipyRows(data, act_l)
        assert rows.shape == ref.shape and np.array_equal(rows.labels, ref.labels), step
        for name in ("indptr", "indices", "data"):
            a, b = getattr(rows, name), getattr(ref.matrix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (step, name)
        for cols in (None, 1, 4):
            shape = (40,) if cols is None else (40, cols)
            W, M = rng.standard_normal(shape), rng.standard_normal((act_l.size,) + shape[1:])
            a, b = rows.margins(W), ref.margins(W)
            assert a.shape == b.shape and np.array_equal(a, b), (step, cols)
            a, b = rows.aggregate(M), ref.aggregate(M)
            assert a.shape == b.shape and np.array_equal(a, b), (step, cols)


@pytest.mark.parametrize("rows_in", [1, 3])
@pytest.mark.parametrize("cols", [None, 1, 3])
def test_rows_products_reject_an_operand_of_the_wrong_row_count(rows_in, cols):
    X = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0]]))
    rows = px.TrainingSet(features=X, labels=np.array([1.0, -1.0, 1.0])).rows(np.array([0, 2]))
    tail = () if cols is None else (cols,)
    # one row would broadcast against the labels, so aggregate checks first
    with pytest.raises(DomainError, match="operand has %d rows, the product needs 2" % rows_in):
        rows.aggregate(np.ones((rows_in,) + tail))
    with pytest.raises(DomainError, match="operand has %d rows, the product needs 3" % (rows_in + 1)):
        rows.margins(np.ones((rows_in + 1,) + tail))
    # the unsigned products of X_a are gone, so a caller cannot get them by mistake
    assert not hasattr(rows, "dot") and not hasattr(rows, "adjoint")


@pytest.mark.parametrize("act_l", [[2, 1, 0], [0, 0, 1]])
def test_rows_of_a_full_size_index_set_follow_its_order(act_l):
    X = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    data = px.TrainingSet(features=sp.csr_matrix(X), labels=np.array([1.0, -1.0, -1.0]))
    rows = data.rows(np.array(act_l))
    assert np.array_equal(rows.labels, data.labels[act_l])
    assert np.array_equal(rows.margins(np.eye(2)), data.labels[act_l][:, None] * X[act_l])


def test_rows_rejects_a_negative_index():
    data = _problem(5, 1, 1, px.ScalarLoss.LOGISTIC, seed=1).data
    for act_l in (np.array([0, -1]), np.r_[np.arange(23), -1]):  # a batch and a full-size set
        with pytest.raises(DomainError, match="row indices must be nonnegative"):
            data.rows(act_l)


@pytest.mark.parametrize("act_l, message", [
    (np.array([0, 24]), "row indices must be below the sample count 24"),
    (np.r_[np.arange(23), 24], "row indices must be below the sample count 24"),
    (np.array([2**40], dtype=np.uint64), "row indices must be below the sample count 24"),
    # cast to 0/1 row indices, a mask used to gather 24 rows with 12 labels
    (np.arange(24) % 2 == 0, "row indices must be a 1-D integer array, got 1-D bool"),
    (np.ones(24, dtype=bool), "row indices must be a 1-D integer array, got 1-D bool"),
    (np.array([0.0, 2.0]), "row indices must be a 1-D integer array, got 1-D float64"),
    (np.arange(24.0), "row indices must be a 1-D integer array, got 1-D float64"),
    (np.array([]), "row indices must be a 1-D integer array, got 1-D float64"),
    (np.arange(24).reshape(4, 6), "row indices must be a 1-D integer array, got 2-D int64"),
], ids=["past-end", "past-end-full-size", "huge-unsigned", "mask", "all-true-mask", "float",
        "float-full-size", "empty-float", "2-d"])
def test_rows_rejects_an_index_array_it_cannot_gather(act_l, message):
    data = _problem(5, 1, 1, px.ScalarLoss.LOGISTIC, seed=1).data
    with pytest.raises(DomainError, match=message):
        data.rows(act_l)


def test_rows_takes_a_list_of_indices_as_an_array():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    data = px.TrainingSet(features=sp.csr_matrix(X), labels=np.array([1.0, -1.0, -1.0]))
    rows = data.rows([0, 2])
    assert np.array_equal(rows.labels, data.labels[[0, 2]])
    assert np.array_equal(rows.margins(np.eye(2)), data.labels[[0, 2]][:, None] * X[[0, 2]])
    # an empty list and a list of floats are float arrays, as np.asarray makes them
    for act_l in ([], [0.0, 2.0]):
        with pytest.raises(DomainError, match="row indices must be a 1-D integer array, got 1-D float64"):
            data.rows(act_l)


@pytest.mark.parametrize("loss", LOSSES)
def test_margins_and_gradient_match_the_public_scipy_products(loss):
    rng = np.random.Generator(np.random.PCG64(21))
    for seed in range(6):
        prob = _problem(11, 3, 1, loss, seed=seed)
        X, y = prob.data.features, prob.data.labels
        every = ScipyRows(prob.data)
        for w in (rng.standard_normal(11), np.where(rng.random(11) < 0.5, 0.0, rng.standard_normal(11)),
                  -np.zeros(11)):
            m = prob.data.rows().margins(w)
            assert np.array_equal(m, y * (X @ w)) and np.array_equal(m, every.margins(w))
            g = px.loss_grad(loss, y * (X @ w))
            want = X.T @ (y * g)
            got = px.smooth_gradient(prob, w)
            assert np.array_equal(got, want) and np.array_equal(got, every.aggregate(g))
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_solver_gives_the_same_bits_without_the_kernels(monkeypatch, solver):
    prob = _problem(11, 1 if solver == "dr-simplified" else 3, 1, px.ScalarLoss.LOGISTIC, seed=4)
    if solver.startswith("dr"):
        cfg = px.DRConfig(rho=0.0 if solver == "dr-simplified" else 0.1, batch_size=9, seed=2,
                          max_iters=30, trace_stride=5)
    else:
        cfg = px.BaselineConfig(step_c=0.3, batch_size=9, seed=2, max_iters=30, trace_stride=5)
    fast = SOLVERS[solver](prob, cfg)
    monkeypatch.setattr(px.TrainingSet, "rows", scipy_rows)
    public = SOLVERS[solver](prob, cfg)
    assert np.array_equal(fast[0], public[0])
    assert [r.objective for r in fast[1].records] == [r.objective for r in public[1].records]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("loss", LOSSES)
def test_records_do_not_feed_the_iterates(monkeypatch, solver, loss):
    # every record through the public X @ w and the logaddexp loss instead
    prob = _problem(11, 1 if solver == "dr-simplified" else 3, 1, loss, seed=4)
    if solver.startswith("dr"):
        rho = 0.1 if solver == "dr" and loss is px.ScalarLoss.LOGISTIC else 0.0
        cfg = px.DRConfig(rho=rho, batch_size=9, seed=2, max_iters=30, trace_stride=5)
    else:
        cfg = px.BaselineConfig(step_c=0.3, batch_size=9, seed=2, max_iters=30, trace_stride=5)
    fast = SOLVERS[solver](prob, cfg)
    calls = []

    def counted(problem, W):
        calls.append(None)
        return np.array([objective_logaddexp(problem, w) for w in W.T])

    monkeypatch.setattr(dr, "objective", counted)
    monkeypatch.setattr(baselines, "objective", counted)
    old = SOLVERS[solver](prob, cfg)
    # the 7 records wait for one stacked evaluation
    assert len(calls) == 1 and len(old[1].records) == 7
    assert np.array_equal(fast[0], old[0])
    assert [r.iteration for r in fast[1].records] == [r.iteration for r in old[1].records]
    for a, b in zip(fast[1].records, old[1].records):
        assert a.objective == pytest.approx(b.objective, rel=1e-14)
