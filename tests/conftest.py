"""Shared fixtures: synthetic classification instances plus the tuned
benchmark problem and its high-accuracy reference, reused across the
convergence, parity, and acceptance tests."""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

import proxsplit as px

# Finite floats for round-trip tests, with the extremes, the subnormals and
# -0.0 drawn on purpose.
FINITE_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)

# One line per acceptance criterion, printed after the run so the
# pass/fail verdicts are visible in plain pytest output.
_criterion_lines = {}


def record_criterion(num, status, detail):
    _criterion_lines[num] = (str(status), str(detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_lines):
        status, detail = _criterion_lines[num]
        terminalreporter.write_line("CRITERION %2d: %s - %s" % (num, status, detail))


def make_problem(N, L, blocks, lam, seed, density=0.4, kappa=1,
                 loss=px.ScalarLoss.LOGISTIC):
    """Random sparse-ish instance with labels from a planted sparse model."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.standard_normal((L, N)) * (rng.random((L, N)) < density)
    w_true = rng.standard_normal(N) * (rng.random(N) < 0.5)
    y = np.where(X @ w_true + 0.1 * rng.standard_normal(L) >= 0, 1.0, -1.0)
    tset = px.TrainingSet(features=sp.csr_matrix(X), labels=y)
    return px.Problem(
        data=tset,
        partition=px.BlockPartition.contiguous(N, blocks),
        reg=px.RegularizerSpec(lam=lam, kappa=kappa),
        loss=loss,
    )


class NoRowGatherKernels:
    """scipy's private sparse kernels with a row-index kernel that fails the
    test: set as model._sparsetools, it fails every gather that
    model.TrainingSet.rows runs."""

    def __init__(self, kernels):
        self.kernels = kernels

    def __getattr__(self, name):
        return getattr(self.kernels, name)

    def csr_row_index(self, *args):
        raise AssertionError("a full batch must not gather rows")


def tiny_problem(lam=0.0):
    """Single sample x=1, y=1: every DR quantity is computable by hand."""
    tset = px.TrainingSet(features=sp.csr_matrix(np.array([[1.0]])),
                          labels=np.array([1.0]))
    return px.Problem(data=tset,
                      partition=px.BlockPartition.contiguous(1, 1),
                      reg=px.RegularizerSpec(lam=lam),
                      loss=px.ScalarLoss.LOGISTIC)


@pytest.fixture(scope="session")
def bench_problem():
    # lam tuned so the minimizer has exactly half its coordinates at zero
    return make_problem(20, 100, 4, lam=3.0, seed=123)


@pytest.fixture(scope="session")
def bench_reference(bench_problem):
    """Long deterministic full-activation run, validated by its KKT residual.

    Returns (w_ref, F_ref, build_seconds); the build time is charged to the
    convergence criterion that first consumes the reference.
    """
    start = time.perf_counter()
    cfg = px.DRConfig(tau=1.0, gamma=1.0, rho=0.1, mu=1.5,
                      max_iters=4000, trace_stride=1000)
    w_ref, _ = px.run(bench_problem, cfg)
    elapsed = time.perf_counter() - start
    assert px.kkt_residual(bench_problem, w_ref) <= 1e-8
    frac_zero = float(np.mean(w_ref == 0.0))
    assert 0.25 <= frac_zero <= 0.75
    return w_ref, px.objective(bench_problem, w_ref), elapsed
