"""Benchmark orchestration: reference solutions, solver comparisons, CSV output.

A benchmark run takes a list of named solver configurations, runs each one
on the same problem (optionally against a shared reference solution so the
traces carry a distance column), writes one trace CSV per run plus a
summary CSV, and returns the summary rows.  Runs are independent and may
execute on a thread pool; the pool size is capped by the
``PROXSPLIT_THREADS`` environment variable (default 1).
"""

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .baselines import bcpd_run, rda_run, sfb_run
from .dr import run, run_simplified
from .errors import DomainError, NonConvergenceError
from .model import kkt_residual, sparsity_degree, test_error
from .trace import check_count, check_scalar

__all__ = [
    "SOLVERS",
    "BenchmarkEntry",
    "SummaryRow",
    "compute_reference",
    "run_benchmark",
    "format_summary",
    "thread_count",
]

# Every solver shares the calling convention
# (problem, config, ..., reference=None, callback=None) -> (w, trace)
# and runs its iterations through trace.drive, so records, callbacks and
# the plateau stop follow the same rules for all of them.
SOLVERS = {
    "dr": run,
    "dr-simplified": run_simplified,
    "sfb": sfb_run,
    "rda": rda_run,
    "bcpd": bcpd_run,
}

SUMMARY_HEADER = "name,solver,objective,dist_ref,test_error_pct,zeros_pct"


@dataclass(frozen=True)
class BenchmarkEntry:
    """One named run: a solver key from SOLVERS plus its config."""

    name: str
    solver: str
    config: object


@dataclass(frozen=True)
class SummaryRow:
    name: str
    solver: str
    objective: float
    dist_ref: float  # None without a reference
    test_error_pct: float  # None without a test set
    zeros_pct: float

    def to_csv_line(self):
        def fmt(x):
            return "" if x is None else format(float(x), ".17g")

        return ",".join(
            [self.name, self.solver]
            + [fmt(x) for x in (self.objective, self.dist_ref, self.test_error_pct, self.zeros_pct)]
        )


def thread_count():
    """Worker cap from PROXSPLIT_THREADS; 1 when unset."""
    raw = os.environ.get("PROXSPLIT_THREADS")
    if raw is None or not raw.strip():
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise DomainError("PROXSPLIT_THREADS must be an integer, got %r" % raw) from None
    if value < 1:
        raise DomainError("PROXSPLIT_THREADS must be >= 1, got %d" % value)
    return value


def solver_named(name):
    """The SOLVERS entry for `name`; DomainError listing the known names."""
    if name not in SOLVERS:
        raise DomainError("unknown solver %r; known: %s" % (name, ", ".join(sorted(SOLVERS))))
    return SOLVERS[name]


def map_workers(fn, items):
    """[fn(item) for item in items] on up to PROXSPLIT_THREADS threads;
    no pool for one worker or one item."""
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def compute_reference(problem, solver, config, long_run_factor=20, kkt_tol=1e-4):
    """Long-run solution used as the w-infinity of distance plots.

    Runs `solver` (a SOLVERS key or a solver callable) for
    ``long_run_factor x config.max_iters`` iterations with plateau
    stopping (window 50 when the config sets none) and returns the final
    solution vector.

    Raises
    ------
    DomainError
        If `solver` names no SOLVERS entry, a count is out of range or
        `kkt_tol` is not a nonnegative, finite real number; all checked
        before the run.
    NonConvergenceError
        If the run exhausted its budget without plateauing and the KKT
        residual of the result still exceeds `kkt_tol`.
    """
    solver_fn = solver_named(solver) if isinstance(solver, str) else solver
    factor = check_count("long_run_factor", long_run_factor, 1)
    kkt_tol = check_scalar("kkt_tol", kkt_tol, "be nonnegative and finite",
                           lambda x: 0.0 <= x < math.inf)
    window = config.plateau_window if config.plateau_window is not None else 50
    long_config = dataclasses.replace(
        config,
        max_iters=check_count("max_iters", config.max_iters, 0) * factor,
        plateau_window=window,
    )
    w, trace = solver_fn(problem, long_config)
    if not trace.extra.get("stopped_by_plateau", False):
        residual = kkt_residual(problem, w)
        if residual > kkt_tol:
            raise NonConvergenceError(
                "reference run never plateaued and its KKT residual %.3e exceeds %.3e"
                % (residual, kkt_tol)
            )
    return w


def check_entries(entries):
    """DomainError unless every entry names a known solver and the entry
    names are nonempty and distinct."""
    seen = set()
    for entry in entries:
        solver_named(entry.solver)
        if not entry.name:
            raise DomainError("benchmark entry names must be nonempty")
        if entry.name in seen:
            raise DomainError("duplicate benchmark entry name %r" % entry.name)
        seen.add(entry.name)


def run_benchmark(problem, entries, reference=None, out_dir=None, test_set=None):
    """Run every entry, write per-run trace CSVs plus summary.csv, return rows.

    Parameters
    ----------
    entries : sequence of BenchmarkEntry
        Row order of the summary follows this order exactly.
    reference : ndarray, optional
        Shared solution for the dist_ref trace column.
    out_dir : str, optional
        Directory for ``<name>.csv`` traces and ``summary.csv``; created
        if missing.  No files are written when omitted.
    test_set : TrainingSet, optional
        Held-out data for the test-error column.

    The entries run on up to PROXSPLIT_THREADS threads.
    """
    entries = list(entries)
    check_entries(entries)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def _one(entry):
        w, trace = SOLVERS[entry.solver](problem, entry.config, reference=reference)
        if out_dir is not None:
            trace.write_csv(os.path.join(out_dir, entry.name + ".csv"))
        return w, trace

    results = map_workers(_one, entries)

    rows = []
    for entry, (w, trace) in zip(entries, results):
        final = trace.final
        err_pct = None if test_set is None else 100.0 * test_error(w, test_set)
        rows.append(
            SummaryRow(
                name=entry.name,
                solver=entry.solver,
                objective=final.objective,
                dist_ref=final.dist_ref,
                test_error_pct=err_pct,
                zeros_pct=100.0 * sparsity_degree(w, tol=0.0),
            )
        )
    if out_dir is not None:
        lines = [SUMMARY_HEADER] + [row.to_csv_line() for row in rows]
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return rows


def format_summary(rows):
    """Monospace table of summary rows for terminal output."""
    header = ("name", "solver", "objective", "dist_ref", "test_error%", "zeros%")
    table = [header]
    for row in rows:
        table.append(
            (
                row.name,
                row.solver,
                "%.6e" % row.objective,
                "-" if row.dist_ref is None else "%.3e" % row.dist_ref,
                "-" if row.test_error_pct is None else "%.2f" % row.test_error_pct,
                "%.2f" % row.zeros_pct,
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    rendered = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)) for line in table]
    return "\n".join(rendered)
