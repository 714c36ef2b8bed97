"""Tests for the problem container, objective, gradients, and KKT residual."""

import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import proxsplit as px
from proxsplit import model
from proxsplit.errors import DomainError
from conftest import make_problem
from oracles import central_difference


def two_block_problem():
    X = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, -1.0, 0.5],
                                [0.0, 1.0, 3.0, 0.0, -2.0],
                                [2.0, 0.0, 1.0, 1.0, 0.0]]))
    y = np.array([1.0, -1.0, 1.0])
    return px.Problem(data=px.TrainingSet(features=X, labels=y),
                      partition=px.BlockPartition.contiguous(5, 2),
                      reg=px.RegularizerSpec(lam=0.5, kappa=(2, 1)),
                      loss=px.ScalarLoss.LOGISTIC)


# ----------------------------------------------------------- construction

def test_training_set_validation():
    X = sp.csr_matrix(np.eye(2))
    with pytest.raises(DomainError, match="-1 or \\+1"):
        px.TrainingSet(features=X, labels=np.array([1.0, 0.5]))
    with pytest.raises(DomainError, match="label count"):
        px.TrainingSet(features=X, labels=np.array([1.0]))
    # dense input is converted, not rejected
    tset = px.TrainingSet(features=np.eye(2), labels=np.array([1.0, -1.0]))
    assert sp.issparse(tset.features)


def test_contiguous_partition():
    bp = px.BlockPartition.contiguous(5, 2)
    assert bp.offsets == (0, 3, 5)
    assert bp.num_blocks == 2
    assert bp.n_features == 5
    assert [s for s in bp.slices()] == [slice(0, 3), slice(3, 5)]
    assert px.BlockPartition.contiguous(6, 3).offsets == (0, 2, 4, 6)
    with pytest.raises(DomainError, match="num_blocks"):
        px.BlockPartition.contiguous(3, 5)
    with pytest.raises(DomainError, match="num_blocks"):
        px.BlockPartition.contiguous(3, 0)
    with pytest.raises(DomainError, match="num_blocks must lie in .* and be an integer, got 2.5"):
        px.BlockPartition.contiguous(10, 2.5)


@pytest.mark.parametrize("n,b,offsets", [
    (300, 200, tuple(range(0, 200, 2)) + tuple(range(200, 301))),
    (10, 6, (0, 2, 4, 6, 8, 9, 10)),
    (5, 4, (0, 2, 3, 4, 5)),
    (7, 3, (0, 3, 5, 7)),
    (300, 4, (0, 75, 150, 225, 300)),
    (2000, 1, (0, 2000)),
])
def test_contiguous_partition_keeps_requested_count(n, b, offsets):
    bp = px.BlockPartition.contiguous(n, b)
    assert bp.num_blocks == b
    assert bp.offsets == offsets


@given(n=st.integers(1, 5000), frac=st.floats(0.0, 1.0))
def test_contiguous_partition_is_balanced(n, frac):
    b = 1 + int(frac * (n - 1))
    sizes = np.diff(px.BlockPartition.contiguous(n, b).offsets)
    assert sizes.size == b and sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    assert np.all(np.diff(sizes) <= 0)  # the larger blocks come first


def test_regularizer_spec_validation():
    with pytest.raises(DomainError, match="nonnegative"):
        px.RegularizerSpec(lam=-1.0)
    with pytest.raises(DomainError, match="kappa"):
        px.RegularizerSpec(lam=1.0, kappa=3)


def test_problem_kappa_broadcast():
    prob = two_block_problem()
    assert prob.kappas == (2, 1)
    assert prob.num_blocks == 2
    assert prob.n_samples == 3
    assert prob.n_features == 5
    scalar = make_problem(6, 4, 3, lam=1.0, seed=0, kappa=2)
    assert scalar.kappas == (2, 2, 2)


def test_problem_rejects_kappa_count_mismatch():
    tset = px.TrainingSet(features=sp.csr_matrix(np.eye(2)),
                          labels=np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        px.Problem(data=tset,
                   partition=px.BlockPartition.contiguous(2, 1),
                   reg=px.RegularizerSpec(lam=1.0, kappa=(1, 2, 1)),
                   loss=px.ScalarLoss.LOGISTIC)


@pytest.mark.parametrize("loss", ["logistic", None])
def test_problem_rejects_a_loss_that_is_not_a_scalar_loss(loss):
    tset = px.TrainingSet(features=sp.csr_matrix(np.eye(2)), labels=np.array([1.0, -1.0]))
    with pytest.raises(DomainError, match=r"^loss must be a ScalarLoss member, got %r$" % loss) as info:
        px.Problem(data=tset, partition=px.BlockPartition.contiguous(2, 1),
                   reg=px.RegularizerSpec(lam=1.0), loss=loss)
    assert info.value.parameter == "loss"


# ------------------------------------------------------ objective and grads

def test_objective_at_zero_is_l_log2():
    prob = make_problem(10, 17, 2, lam=3.0, seed=1)
    assert px.objective(prob, np.zeros(10)) == pytest.approx(17.0 * math.log(2.0), rel=1e-15)


def test_objective_single_sample_by_hand():
    tset = px.TrainingSet(features=sp.csr_matrix(np.array([[2.0]])),
                          labels=np.array([-1.0]))
    prob = px.Problem(data=tset, partition=px.BlockPartition.contiguous(1, 1),
                      reg=px.RegularizerSpec(lam=1.0), loss=px.ScalarLoss.LOGISTIC)
    got = px.objective(prob, np.array([1.0]))
    assert got == pytest.approx(1.0 + math.log(1.0 + math.exp(2.0)), rel=1e-15)


def test_objective_nonnegative_and_convex():
    prob = make_problem(8, 12, 2, lam=0.7, seed=2)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(25):
        w1 = rng.standard_normal(8)
        w2 = rng.standard_normal(8)
        f1 = px.objective(prob, w1)
        f2 = px.objective(prob, w2)
        assert f1 >= 0.0 and f2 >= 0.0
        for theta in (0.25, 0.5, 0.9):
            mix = px.objective(prob, theta * w1 + (1.0 - theta) * w2)
            assert mix <= theta * f1 + (1.0 - theta) * f2 + 1e-10


def test_regularizer_value_mixed_blocks():
    prob = two_block_problem()
    w = np.array([3.0, 4.0, 0.0, 1.0, -2.0])
    # block 1 is l2 on [3,4,0], block 2 is l1 on [1,-2]
    assert px.regularizer_value(prob, w) == pytest.approx(0.5 * 5.0 + 0.5 * 3.0, rel=1e-15)
    # summing per-block contributions reproduces the total
    total = 0.0
    for sl, kappa in zip(prob.partition.slices(), prob.kappas):
        piece = np.linalg.norm(w[sl], 2 if kappa == 2 else 1)
        total += prob.reg.lam * piece
    assert px.regularizer_value(prob, w) == pytest.approx(total, rel=1e-15)


@st.composite
def stacked_objective_case(draw):
    """A problem with rows holding no entry and explicitly stored zeros, a
    stack of 1-20 columns with +-0.0 among its entries, and a panel size
    that splits the rows into panels of one row up to all of them."""
    N = draw(st.integers(1, 7))
    L = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -2.5)),
                      st.floats(-1e3, 1e3, allow_nan=False))
    indptr, indices, data = [0], [], []
    for _ in range(L):
        cols = sorted(draw(st.sets(st.integers(0, N - 1), max_size=N)))  # may be empty
        indices += cols
        data += [draw(entry) for _ in cols]  # an entry drawn as +-0.0 stays stored
        indptr.append(len(indices))
    X = sp.csr_matrix((np.array(data, dtype=float), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=(L, N))
    y = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=L, max_size=L)))
    B = draw(st.integers(1, N))
    kappa = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=B, max_size=B)))
    prob = px.Problem(data=px.TrainingSet(features=X, labels=y),
                      partition=px.BlockPartition.contiguous(N, B),
                      reg=px.RegularizerSpec(lam=draw(st.sampled_from((0.0, 0.5, 3.0))),
                                             kappa=kappa),
                      loss=draw(st.sampled_from(list(px.ScalarLoss))))
    K = draw(st.integers(1, 20))
    W = np.array(draw(st.lists(entry, min_size=N * K, max_size=N * K))).reshape(N, K)
    return prob, W, draw(st.integers(1, 64))


def scipy_objective(prob, w):
    """The objective of one vector through scipy's public product, which
    shares no code with objective."""
    X, y = prob.data.features, prob.data.labels
    return float(np.sum(px.loss_value(prob.loss, y * (X @ w))) + px.regularizer_value(prob, w))


@settings(max_examples=300, deadline=None)
@given(case=stacked_objective_case())
def test_stacked_objective_is_each_columns_objective_bit_for_bit(case):
    # the bits rest on csr_matvecs adding each row's terms in csr_matvec's
    # order, the kernel of X @ w; a vector takes csr_matvec in panels too
    prob, W, panel_entries = case
    want = [scipy_objective(prob, np.ascontiguousarray(w)).hex() for w in W.T]
    with mock.patch.object(model, "PANEL_ENTRIES", panel_entries):
        got = px.objective(prob, W)
        single = [px.objective(prob, np.ascontiguousarray(w)) for w in W.T]
    assert got.shape == (W.shape[1],)
    assert [v.hex() for v in got] == want
    assert [v.hex() for v in single] == want


@pytest.mark.parametrize("loss", list(px.ScalarLoss))
def test_stacked_objective_crosses_row_panels_bit_for_bit(loss):
    # 3000 rows in panels of 2048 rows for 16 columns
    prob = make_problem(40, 3000, 3, lam=0.5, seed=7, density=0.1, kappa=(1, 2, 1), loss=loss)
    W = np.random.Generator(np.random.PCG64(8)).standard_normal((40, 16))
    W[:, 3] = 0.0
    want = [scipy_objective(prob, np.ascontiguousarray(w)).hex() for w in W.T]
    assert [v.hex() for v in px.objective(prob, W)] == want
    # a strided stack gives the same bits as its contiguous copy
    assert [v.hex() for v in px.objective(prob, W[:, ::2])] == want[::2]


def test_objective_of_one_column_stack_is_an_array_of_one():
    prob = make_problem(6, 20, 2, lam=0.5, seed=1)
    w = np.linspace(-1.0, 1.0, 6)
    got = px.objective(prob, w[:, None])
    want = scipy_objective(prob, w).hex()
    assert got.shape == (1,) and got[0].hex() == want
    single = px.objective(prob, w)
    assert type(single) is float and single.hex() == want


# the problem make_problem(6, 20, 2, lam=0.5, seed=1) has N = 6
MISSHAPEN = [np.ones(8), np.ones(5), np.ones((6, 3)), np.ones((6, 1)), np.ones(()),
             np.ones((1, 6))]


@pytest.mark.parametrize("w", MISSHAPEN, ids=lambda w: str(w.shape))
def test_regularizer_code_rejects_a_vector_of_another_shape(w):
    # before, reg_prox of 8 entries returned 2 never-written ones, and a
    # short vector gave a short prox and a short regularizer value
    prob = make_problem(6, 20, 2, lam=0.5, seed=1)
    shape = re.escape(str(w.shape))
    with pytest.raises(DomainError, match=r"z must have shape \(6,\), got %s" % shape):
        px.reg_prox(prob, w, 1.0)
    with pytest.raises(DomainError, match=r"w must have shape \(6,\), got %s" % shape):
        px.regularizer_value(prob, w)
    with pytest.raises(DomainError, match=r"w must have shape \(6,\), got %s" % shape):
        px.kkt_residual(prob, w)


@pytest.mark.parametrize("shape", [(8,), (5,), (), (1, 6), (6, 0), (6, 3, 1)])
def test_objective_takes_a_vector_or_a_stack_of_columns(shape):
    prob = make_problem(6, 20, 2, lam=0.5, seed=1)
    with pytest.raises(DomainError, match=r"w must have shape \(6,\) or \(6, K\) with K >= 1"):
        px.objective(prob, np.ones(shape))
    # a (6, 3) stack used to give the sum of its columns' objectives
    W = np.linspace(-1.0, 1.0, 18).reshape(6, 3)
    assert list(px.objective(prob, W)) == [px.objective(prob, W[:, k].copy()) for k in range(3)]


def test_margins_by_hand():
    X = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    prob = px.Problem(data=px.TrainingSet(features=X, labels=np.array([1.0, -1.0])),
                      partition=px.BlockPartition.contiguous(2, 2),
                      reg=px.RegularizerSpec(lam=0.5), loss=px.ScalarLoss.LOGISTIC)
    assert np.array_equal(prob.data.rows().margins(np.array([1.0, -2.0])), np.array([-3.0, 2.0]))


@pytest.mark.parametrize("loss", [px.ScalarLoss.LOGISTIC, px.ScalarLoss.HINGE_Q2,
                                  px.ScalarLoss.HUBER])
def test_smooth_gradient_matches_finite_differences(loss):
    prob = make_problem(6, 9, 2, lam=0.8, seed=4, loss=loss)
    rng = np.random.Generator(np.random.PCG64(5))
    w = rng.standard_normal(6) * 2.0
    g = px.smooth_gradient(prob, w)

    def smooth_part(wj, j):
        ww = w.copy()
        ww[j] = wj
        return px.objective(prob, ww) - px.regularizer_value(prob, ww)

    for j in range(6):
        num = central_difference(lambda t: smooth_part(t, j), w[j])
        assert g[j] == pytest.approx(num, abs=2e-6)


@pytest.mark.parametrize("loss", list(px.ScalarLoss))
@pytest.mark.parametrize("act_l", [None, [0, 1, 2, 3, 4, 5, 6, 7, 8], [4, 0, 4, 7, 7, 7], [3], []],
                         ids=["none", "every-row", "repeats", "one", "empty"])
def test_smooth_gradient_on_a_batch_is_scipys_product_bit_for_bit(loss, act_l):
    # X[act_l].T @ (y_a * h'(y_a * (X[act_l] @ w))), rows repeated as often as listed
    prob = make_problem(6, 9, 2, lam=0.8, seed=4, loss=loss)
    X, y = prob.data.features, prob.data.labels
    rows = slice(None) if act_l is None else np.array(act_l, dtype=np.intp)
    Xa, ya = X[rows], y[rows]
    for w in (np.random.Generator(np.random.PCG64(6)).standard_normal(6) * 2.0, -np.zeros(6)):
        want = Xa.T @ (ya * px.loss_grad(loss, ya * (Xa @ w)))
        got = px.smooth_gradient(prob, w, None if act_l is None else rows)
        assert [v.hex() for v in got] == [v.hex() for v in want]


# ----------------------------------------------------------- kkt residual

def test_kkt_residual_zero_at_origin_under_large_lambda():
    prob_small = make_problem(8, 30, 2, lam=0.5, seed=5)
    g0 = px.smooth_gradient(prob_small, np.zeros(8))
    lam_star = float(np.max(np.abs(g0)))
    prob_hi = make_problem(8, 30, 2, lam=lam_star + 1.0, seed=5)
    assert px.kkt_residual(prob_hi, np.zeros(8)) == 0.0
    prob_lo = make_problem(8, 30, 2, lam=0.5 * lam_star, seed=5)
    assert px.kkt_residual(prob_lo, np.zeros(8)) > 0.1 * lam_star


def test_kkt_residual_small_at_computed_optimum():
    prob = make_problem(8, 30, 2, lam=0.5, seed=5)
    w, _ = px.run(prob, px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5,
                                    max_iters=1500, trace_stride=500))
    assert px.kkt_residual(prob, w) <= 1e-6
    assert px.kkt_residual(prob, w + 0.3) > 1e-2


@pytest.mark.parametrize("w", [[0.0, 1.0, math.nan, 0.0, 0.0, 0.0], [math.inf] * 6,
                               [0.0, -math.inf, 0.0, 0.0, 0.0, 0.0]])
@pytest.mark.parametrize("kappa", [1, 2])
def test_kkt_residual_rejects_a_non_finite_w(w, kappa):
    # max(worst, nan) keeps worst, so a NaN would otherwise read as optimal
    prob = make_problem(6, 20, 2, lam=0.5, seed=1, kappa=kappa)
    with pytest.raises(DomainError, match="finite w"):
        px.kkt_residual(prob, np.array(w))


@given(pattern=st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-3]), min_size=6, max_size=6),
       lam=st.floats(0.0, 5.0))
def test_kkt_residual_of_l1_blocks_is_the_worst_violation_per_coordinate(pattern, lam):
    # |g_j| - lambda (at least 0) at a zero, |g_j + lambda sign(w_j)| elsewhere
    prob = make_problem(6, 20, 2, lam=lam, seed=1)
    w = np.array(pattern)
    g = px.smooth_gradient(prob, w)
    want = max(max(abs(gj) - lam, 0.0) if wj == 0.0 else abs(gj + lam * math.copysign(1.0, wj))
               for wj, gj in zip(w, g))
    assert px.kkt_residual(prob, w) == want


@pytest.mark.parametrize("w", [[0.0] * 6, [0.7, -0.2, 0.4, 0.1, 1.3, -0.5],
                               [0.0, 0.0, 0.0, 0.1, 1.3, -0.5]],
                         ids=["zero-blocks", "nonzero-blocks", "both"])
def test_kkt_residual_of_group_blocks_against_a_scipy_gradient(w):
    # ||g_b|| - lambda (at least 0) at a zero block, ||g_b + lambda w_b / ||w_b|| ||
    # elsewhere, with g = X^T (y h'(y X w)) and h'(m) = -1 / (1 + e^m)
    lam = 0.3
    prob = make_problem(6, 20, 2, lam=lam, seed=1, kappa=2)
    w = np.array(w)
    X, y = prob.data.features, prob.data.labels
    g = X.T @ (y * -expit(-(y * (X @ w))))
    want = 0.0
    for sl in (slice(0, 3), slice(3, 6)):
        nrm = np.linalg.norm(w[sl])
        want = max(want, max(np.linalg.norm(g[sl]) - lam, 0.0) if nrm == 0.0
                   else np.linalg.norm(g[sl] + lam * w[sl] / nrm))
    assert want > 0.1
    assert px.kkt_residual(prob, w) == pytest.approx(want, rel=1e-12)


def test_kkt_residual_vanishes_at_a_long_group_run():
    prob = make_problem(8, 30, 2, lam=0.5, seed=5, kappa=2)
    w, _ = px.run(prob, px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5,
                                    max_iters=2000, trace_stride=500))
    assert np.linalg.norm(w[:4]) > 0.0 and np.linalg.norm(w[4:]) > 0.0
    assert px.kkt_residual(prob, w) <= 1e-8


# --------------------------------------------------------------- reg_prox

def test_reg_prox_mixed_blocks_scalar_tau():
    prob = two_block_problem()
    z = np.array([3.0, 4.0, 0.0, 1.5, -0.5])
    out = px.reg_prox(prob, z, 2.0)  # thresh = 2.0 * 0.5 = 1.0 per block
    expect = np.concatenate([px.prox_group_l2(z[:3], 1.0), px.prox_l1(z[3:], 1.0)])
    assert np.array_equal(out, expect)


def test_reg_prox_per_block_tau():
    # one tau serves every block; a value per block is rejected by name
    prob = two_block_problem()
    z = np.array([3.0, 4.0, 0.0, 1.5, -0.5])
    with pytest.raises(DomainError, match="tau must be a scalar"):
        px.reg_prox(prob, z, np.array([1.0, 4.0]))


@pytest.mark.parametrize("tau", [True, "2", -1.0, math.inf, math.nan])
def test_reg_prox_tau_must_be_a_nonnegative_finite_real_number(tau):
    prob = two_block_problem()
    with pytest.raises(DomainError, match="tau must be a scalar, nonnegative and finite"):
        px.reg_prox(prob, np.ones(5), tau)


def test_reg_prox_zero_lambda_is_identity():
    prob = make_problem(5, 4, 2, lam=0.0, seed=6)
    z = np.arange(5.0) - 2.0
    assert np.array_equal(px.reg_prox(prob, z, 3.0), z)


def test_reg_prox_makes_one_l1_call_per_run_of_l1_blocks(monkeypatch):
    # blocks l1, l1, l2, l1, l1, l2, l2: two l1 runs and three group blocks
    prob = make_problem(14, 5, 7, lam=0.3, seed=2, kappa=(1, 1, 2, 1, 1, 2, 2))
    z = np.linspace(-2.0, 2.0, 14)
    want = np.concatenate([(px.prox_l1 if k == 1 else px.prox_group_l2)(z[sl], 0.6)
                           for sl, k in zip(prob.partition.slices(), prob.kappas)])
    calls = []
    for name in ("prox_l1", "prox_group_l2"):
        def counted(w, thresh, _name=name, _original=getattr(model, name)):
            calls.append((_name, w.size))
            return _original(w, thresh)
        monkeypatch.setattr(model, name, counted)
    assert np.array_equal(px.reg_prox(prob, z, 2.0), want)
    assert calls == [("prox_l1", 4), ("prox_group_l2", 2), ("prox_l1", 4),
                     ("prox_group_l2", 2), ("prox_group_l2", 2)]


def test_reg_runs_join_l1_blocks_that_follow_each_other_in_the_order_given():
    prob = make_problem(10, 5, 5, lam=0.3, seed=2, kappa=(1, 1, 2, 1, 1))
    runs = lambda blocks: [(sl.start, sl.stop, k) for sl, k in model.reg_runs(prob, blocks)]
    assert runs(range(5)) == [(0, 4, 1), (4, 6, 2), (6, 10, 1)]
    assert runs([1, 0, 3, 4]) == [(2, 4, 1), (0, 2, 1), (6, 10, 1)]
    assert runs([0, 3]) == [(0, 2, 1), (6, 8, 1)]
    assert runs([2]) == [(4, 6, 2)]
    assert runs([]) == []


# ------------------------------------------------- prediction and sparsity

def test_predict_ties_go_positive():
    X = np.array([[2.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    out = px.predict(np.array([1.0, -1.0]), X)
    assert np.array_equal(out, np.array([1.0, 1.0, -1.0]))


def test_test_error_counts_mismatches():
    tset = px.TrainingSet(features=sp.csr_matrix(np.array([[1.0], [1.0], [-2.0]])),
                          labels=np.array([1.0, -1.0, -1.0]))
    assert px.test_error(np.array([1.0]), tset) == pytest.approx(1.0 / 3.0)
    assert px.test_error(np.array([-1.0]), tset) == pytest.approx(2.0 / 3.0)


def test_sparsity_degree_examples():
    assert px.sparsity_degree(np.array([0.0, 0.0, 1.0, 2.0]), tol=0.0) == 0.5
    assert px.sparsity_degree(np.array([1e-12, 1.0])) == 0.5
    assert px.sparsity_degree(np.zeros(7)) == 1.0
    with pytest.raises(DomainError):
        px.sparsity_degree(np.ones(3), tol=-1e-3)
