"""Tests for the benchmark harness: solver registry, reference computation,
summary table, and the trace files it writes."""

import math
import os

import numpy as np
import pytest

import proxsplit as px
from proxsplit import baselines, dr
from proxsplit.bench import check_solver_config
from proxsplit.errors import DomainError, NonConvergenceError
from conftest import make_problem


def bench_entries():
    return [
        px.BenchmarkEntry(name="dr", solver="dr",
                          config=px.DRConfig(rho=0.1, max_iters=200, trace_stride=20)),
        px.BenchmarkEntry(name="sfb", solver="sfb",
                          config=px.BaselineConfig(step_c=0.1, max_iters=200, trace_stride=20)),
    ]


def test_solver_registry_names():
    assert sorted(px.SOLVERS) == ["bcpd", "dr", "dr-simplified", "rda", "sfb"]


def test_compute_reference_certifies_kkt():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    w_ref = px.compute_reference(prob, "dr", px.DRConfig(rho=0.1, max_iters=300,
                                                         trace_stride=100))
    assert px.kkt_residual(prob, w_ref) <= 1e-4


def test_compute_reference_raises_when_unconverged():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    with pytest.raises(NonConvergenceError):
        px.compute_reference(prob, "sfb",
                             px.BaselineConfig(step_c=1e-6, max_iters=5, trace_stride=1),
                             long_run_factor=1, kkt_tol=1e-12)


@pytest.mark.parametrize("reason", ["plateau", "budget"])
def test_compute_reference_certifies_only_a_run_that_did_not_plateau(reason):
    # the KKT check reads the trace's stop_reason: the zero vector is far
    # from optimal, so it passes only as the result of a plateaued run
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    trace = px.ConvergenceTrace()
    trace.extra["stop_reason"] = reason

    def solver(problem, config):
        return np.zeros(problem.n_features), trace

    if reason == "plateau":
        assert np.array_equal(px.compute_reference(prob, solver, px.DRConfig(max_iters=5)),
                              np.zeros(8))
    else:
        with pytest.raises(NonConvergenceError, match="never plateaued"):
            px.compute_reference(prob, solver, px.DRConfig(max_iters=5))


def test_compute_reference_rejects_unknown_solver():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    with pytest.raises(DomainError, match="unknown solver 'bogus'; known: bcpd, dr, "):
        px.compute_reference(prob, "bogus", px.DRConfig(max_iters=5))


@pytest.mark.parametrize("bad", [-1, -1e-300, math.inf, math.nan, "x", "1e-4", True, [1e-4]])
def test_compute_reference_checks_kkt_tol_before_the_run(bad):
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    calls = []

    def solver(problem, config):
        calls.append(config)
        return px.sfb_run(problem, config)

    with pytest.raises(DomainError, match=r"^kkt_tol must be nonnegative and finite, got "):
        px.compute_reference(prob, solver, px.BaselineConfig(max_iters=3), kkt_tol=bad)
    assert calls == []


def test_references_from_different_solvers_agree():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    w1 = px.compute_reference(prob, "dr", px.DRConfig(rho=0.1, max_iters=300,
                                                      trace_stride=100))
    w2 = px.compute_reference(prob, "bcpd", px.BaselineConfig(tau=0.05, max_iters=2000,
                                                              trace_stride=500))
    f1, f2 = px.objective(prob, w1), px.objective(prob, w2)
    assert abs(f1 - f2) <= 1e-5 * max(1.0, abs(f1))


def test_run_benchmark_rows_and_files(tmp_path):
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    w_ref = px.compute_reference(prob, "dr", px.DRConfig(rho=0.1, max_iters=300,
                                                         trace_stride=100))
    rows = px.run_benchmark(prob, bench_entries(), reference=w_ref,
                            out_dir=str(tmp_path))
    assert [r.name for r in rows] == ["dr", "sfb"]  # input order preserved
    assert all(r.dist_ref is not None for r in rows)
    assert rows[0].objective <= rows[1].objective  # splitting beats tuned-down sfb here
    assert sorted(os.listdir(tmp_path)) == ["dr.csv", "sfb.csv", "summary.csv"]
    # every solver run is seeded, so a direct rerun reproduces the trace
    # that was written to disk, column by column (timings aside)
    reparsed = px.ConvergenceTrace.from_csv((tmp_path / "dr.csv").read_text())
    w_again, tr_again = px.run(prob, bench_entries()[0].config, reference=w_ref)
    assert [r.objective for r in reparsed.records] == [r.objective for r in tr_again.records]
    assert [r.dist_ref for r in reparsed.records] == [r.dist_ref for r in tr_again.records]
    assert [r.iteration for r in reparsed.records] == [r.iteration for r in tr_again.records]


def test_run_benchmark_with_test_set():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    holdout = make_problem(8, 40, 2, lam=0.6, seed=10).data
    rows = px.run_benchmark(prob, bench_entries()[:1], test_set=holdout)
    assert rows[0].test_error_pct is not None
    assert 0.0 <= rows[0].test_error_pct <= 100.0


def test_run_benchmark_validates_entries():
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    dup = bench_entries()
    dup[1] = px.BenchmarkEntry(name="dr", solver="sfb",
                               config=px.BaselineConfig(step_c=0.1, max_iters=10))
    with pytest.raises(DomainError, match="duplicate"):
        px.run_benchmark(prob, dup)
    with pytest.raises(DomainError, match="unknown solver"):
        px.run_benchmark(prob, [px.BenchmarkEntry(name="x", solver="nope",
                                                  config=px.DRConfig())])


@pytest.mark.parametrize("name", ["summary", "Summary", "SUMMARY", "sub/x", "a" + os.sep + "b",
                                  ".", "..", "", None, 3])
def test_run_benchmark_rejects_a_name_that_is_not_its_own_trace_file(tmp_path, monkeypatch, name):
    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    calls = []
    monkeypatch.setitem(px.SOLVERS, "dr", lambda *args, **kwargs: calls.append(args))
    entries = [bench_entries()[0], px.BenchmarkEntry(name=name, solver="dr", config=px.DRConfig())]
    with pytest.raises(DomainError, match="cannot name its own trace file <name>.csv"):
        px.run_benchmark(prob, entries, out_dir=str(tmp_path / "out"))
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver,config,message", [
    ("sfb", px.BaselineConfig(step_c=-1.0), "step_c must be positive"),
    ("rda", px.BaselineConfig(seed=-1), "seed must be >= 0"),
    ("bcpd", px.BaselineConfig(batch_size=26), "batch_size must lie in"),
    ("dr", px.DRConfig(mu=2.0), "mu must lie in"),
    ("dr", px.DRConfig(seed=-1), "seed must be >= 0"),
    ("dr-simplified", px.DRConfig(), "run_simplified requires a single block"),
])
def test_run_benchmark_checks_every_config_before_any_run(tmp_path, monkeypatch, solver, config,
                                                          message):
    def no_run(*args, **kwargs):
        raise AssertionError("a solver ran")

    prob = make_problem(8, 25, 2, lam=0.6, seed=9)
    for key in px.SOLVERS:
        monkeypatch.setitem(px.SOLVERS, key, no_run)
    entries = bench_entries() + [px.BenchmarkEntry(name="last", solver=solver, config=config)]
    with pytest.raises(DomainError, match=message):
        px.run_benchmark(prob, entries, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def _no_setup(*args):
    raise AssertionError("setup work started before the options were checked")


@pytest.mark.parametrize("solver,config", [
    ("dr", px.DRConfig(rho=0.1)),
    ("dr", px.DRConfig(mu=2.0)),
    ("dr-simplified", px.DRConfig(rho=0.1)),
    ("dr-simplified", px.DRConfig()),
    ("sfb", px.BaselineConfig(tau=-1.0)),
    ("rda", px.BaselineConfig(sigma=-2.0)),
    ("bcpd", px.BaselineConfig(step_c=0.0)),
])
def test_every_solver_raises_what_check_solver_config_raises(monkeypatch, solver, config):
    # a squared hinge problem with 2 blocks: rho > 0 and dr-simplified are
    # both rejected, by the solver's own check and before its setup work
    monkeypatch.setattr(dr, "_build_preconditioner", _no_setup)
    monkeypatch.setattr(baselines, "operator_norm_sq", _no_setup)
    prob = make_problem(8, 25, 2, lam=0.6, seed=9, loss=px.ScalarLoss.HINGE_Q2)
    with pytest.raises(DomainError) as checked:
        check_solver_config(prob, solver, config)
    with pytest.raises(DomainError) as ran:
        px.SOLVERS[solver](prob, config)
    assert str(ran.value) == str(checked.value)


def test_format_summary_empty_and_alignment():
    assert px.format_summary([]) == "name  solver  objective  dist_ref  test_error%  zeros%"
    row = px.SummaryRow(name="a", solver="dr", objective=1.25, dist_ref=None,
                        test_error_pct=None, zeros_pct=50.0)
    table = px.format_summary([row])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert "1.25" in lines[1] and "50.0" in lines[1]


def test_dist_ref_tail_is_nonincreasing(bench_problem, bench_reference):
    w_ref, _, _ = bench_reference
    _, tr = px.run(bench_problem, px.DRConfig(rho=0.1, max_iters=500, trace_stride=5),
                   reference=w_ref)
    dists = np.array([r.dist_ref for r in tr.records])
    tail = dists[-(len(dists) // 5):]
    assert np.all(np.diff(tail) <= 1e-6)
