"""Benchmark orchestration: reference solutions, solver comparisons, CSV output.

A benchmark run takes a list of named solver configurations, runs each one
on the same problem (optionally against a shared reference solution so the
traces carry a distance column), writes one trace CSV per run plus a
summary CSV, and returns the summary rows.  The entries run one after
another in the order given, so each trace's ``seconds`` column times that
solver alone.
"""

import dataclasses
import math
import os
from dataclasses import dataclass

from .baselines import bcpd_run, check_config, rda_run, sfb_run
from .dr import resolve_config, resolve_simplified, run, run_simplified
from .errors import DomainError, NonConvergenceError
from .model import kkt_residual, test_error
from .trace import check_count, check_scalar

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

# The checks each solver makes of its config before any setup work, with
# no factorization and no power iteration
_CONFIG_CHECKS = {
    "dr": resolve_config,
    "dr-simplified": resolve_simplified,
    "sfb": check_config,
    "rda": check_config,
    "bcpd": check_config,
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


def solver_named(name):
    """The SOLVERS entry for `name`; DomainError listing the known names."""
    if name not in SOLVERS:
        raise DomainError("unknown solver %r; known: %s" % (name, ", ".join(sorted(SOLVERS))))
    return SOLVERS[name]


def check_solver_config(problem, solver, config):
    """DomainError when the SOLVERS entry `solver` would reject `config` on
    `problem` in its setup; cheap, so a caller can check every run before
    it creates a file or starts one.  It calls the check the runner itself
    starts with, so both raise the same message, and no option is changed."""
    solver_named(solver)
    _CONFIG_CHECKS[solver](problem, config)


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
    if trace.extra.get("stop_reason") != "plateau":
        residual = kkt_residual(problem, w)
        if residual > kkt_tol:
            raise NonConvergenceError(
                "reference run never plateaued and its KKT residual %.3e exceeds %.3e"
                % (residual, kkt_tol)
            )
    return w


def check_entries(entries):
    """DomainError unless every entry names a known solver and the entry
    names are distinct, each the stem of its own ``<name>.csv`` beside
    summary.csv: a nonempty str, not "summary" in any case, not "." or "..",
    and free of path separators."""
    seen = set()
    for entry in entries:
        solver_named(entry.solver)
        name = entry.name
        if (not isinstance(name, str) or not name or name in (".", "..")
                or name.lower() == "summary"
                or any(sep and sep in name for sep in ("/", os.sep, os.altsep))):
            raise DomainError("benchmark entry name %r cannot name its own trace file <name>.csv"
                              % name)
        if name in seen:
            raise DomainError("duplicate benchmark entry name %r" % name)
        seen.add(name)


def run_benchmark(problem, entries, reference=None, out_dir=None, test_set=None):
    """Run every entry, write per-run trace CSVs plus summary.csv, return rows.

    Each row's objective, dist_ref, test error and zeros are of the vector
    the solver returns: all but the test error are read from the trace's
    last record, which is of that vector.

    Parameters
    ----------
    entries : sequence of BenchmarkEntry
        The entries run one after another in this order, and the summary
        rows follow it exactly.
    reference : ndarray, optional
        Shared solution for the dist_ref trace column.
    out_dir : str, optional
        Directory for ``<name>.csv`` traces and ``summary.csv``; created
        if missing, once every entry's config has passed its solver's
        checks.  No files are written when omitted.
    test_set : TrainingSet, optional
        Held-out data for the test-error column.
    """
    entries = list(entries)
    check_entries(entries)
    for entry in entries:
        check_solver_config(problem, entry.solver, entry.config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    rows = []
    for entry in entries:
        w, trace = SOLVERS[entry.solver](problem, entry.config, reference=reference)
        if out_dir is not None:
            trace.write_csv(os.path.join(out_dir, entry.name + ".csv"))
        err_pct = None if test_set is None else 100.0 * test_error(w, test_set)
        final = trace.final
        rows.append(
            SummaryRow(
                name=entry.name,
                solver=entry.solver,
                objective=final.objective,
                dist_ref=final.dist_ref,
                test_error_pct=err_pct,
                # the bits of 100 * sparsity_degree(w, tol=0.0)
                zeros_pct=100.0 * (final.zeros_exact / problem.n_features),
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
