"""Convergence traces and the iteration loop every solver runs through.

The CSV layout is fixed so traces from different solvers can be compared
and re-plotted: a `# setup_seconds=...` metadata line, the header
`iter,seconds,objective,dist_ref,zeros_exact,zeros_tol`, then one row per
record.  Floats are written with 17 significant digits so a re-parse
reproduces the in-memory trace exactly.

:func:`drive` is the iteration loop of all five solvers, with the record
at iteration 0, the callback, the strided record, the batched objectives
of the records, which one worker thread evaluates with one batch in
flight while the next one fills, and the plateau stop;
:func:`float_copy` checks their start vectors, and :func:`check_scalar`
and :func:`check_count` decide every number a caller passes, in any module.
"""

import io
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError

CSV_HEADER = "iter,seconds,objective,dist_ref,zeros_exact,zeros_tol"

# |w_j| at or below this counts as a "numerical zero" in the zeros_tol column
ZEROS_TOL = 1e-8

# drive evaluates the objectives of up to BATCH_RECORDS records at once,
# fewer when their margins and vectors would pass BATCH_BYTES
BATCH_RECORDS = 16
BATCH_BYTES = 8 * 2 ** 20


def _fmt(x):
    return format(float(x), ".17g")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    seconds: float
    objective: float
    dist_ref: object  # float or None when no reference was supplied
    zeros_exact: int
    zeros_tol: int


@dataclass
class ConvergenceTrace:
    """Progress records of one solver run plus the setup time spent before
    iterating (preconditioner factorization, state allocation).  Each
    record is whole: :func:`drive` builds it, or from_csv reads it back."""

    setup_seconds: float = 0.0
    records: list = field(default_factory=list)
    # auxiliary per-run arrays (e.g. step sizes); not part of the CSV format
    extra: dict = field(default_factory=dict)

    def append(self, record):
        if self.records:
            last = self.records[-1]
            if record.iteration <= last.iteration:
                raise DomainError("trace iterations must be strictly increasing")
            if record.seconds < last.seconds:
                raise DomainError("trace seconds must be nondecreasing")
        self.records.append(record)

    @property
    def final(self):
        if not self.records:
            raise DomainError("empty trace")
        return self.records[-1]

    def to_csv(self, sink=None):
        """Write the trace as CSV; returns the text when sink is None."""
        out = sink if sink is not None else io.StringIO()
        out.write("# setup_seconds=%s\n" % _fmt(self.setup_seconds))
        out.write(CSV_HEADER + "\n")
        for r in self.records:
            dist = "" if r.dist_ref is None else _fmt(r.dist_ref)
            out.write(
                "%d,%s,%s,%s,%d,%d\n"
                % (r.iteration, _fmt(r.seconds), _fmt(r.objective), dist, r.zeros_exact, r.zeros_tol)
            )
        if sink is None:
            return out.getvalue()
        return None

    def write_csv(self, path):
        with open(path, "w") as f:
            self.to_csv(f)

    @classmethod
    def from_csv(cls, source):
        """Parse a trace written by to_csv; source is text or a line iterable."""
        if isinstance(source, str):
            source = io.StringIO(source)
        trace = cls()
        header_seen = False
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    if key.strip() == "setup_seconds":
                        try:
                            trace.setup_seconds = float(val)
                        except ValueError:
                            raise ParseError("bad setup_seconds %r" % val.strip(), lineno) from None
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ParseError("unexpected trace header %r" % line, lineno)
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ParseError("expected 6 fields, got %d" % len(parts), lineno)
            try:
                trace.append(
                    TraceRecord(
                        iteration=int(parts[0]),
                        seconds=float(parts[1]),
                        objective=float(parts[2]),
                        dist_ref=None if parts[3] == "" else float(parts[3]),
                        zeros_exact=int(parts[4]),
                        zeros_tol=int(parts[5]),
                    )
                )
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        if not header_seen:
            raise ParseError("no trace header found", 0)
        return trace


def plateau_hit(trace, window, rtol):
    """True when the newest record's objective moved by at most rtol
    (relative) since the latest record at least `window` iterations older."""
    recs = trace.records
    if len(recs) < 2:
        return False
    last = recs[-1]
    target = last.iteration - window
    for r in reversed(recs[:-1]):
        if r.iteration <= target:
            return abs(last.objective - r.objective) <= rtol * max(1.0, abs(last.objective))
    return False


def check_scalar(name, value, requirement, ok):
    """float(value); DomainError naming the parameter unless value is a real
    number that passes ok: a numbers.Real other than a bool, such as a Python
    or numpy int or float, but not a string, a sequence or a 0-d array."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(float(value)):
        raise DomainError("must %s, got %r" % (requirement, value), name)
    return float(value)


def check_positive(name, value):
    """check_scalar for a step: a positive, finite real number."""
    return check_scalar(name, value, "be positive, finite and a scalar",
                        lambda x: 0.0 < x < math.inf)


def check_count(name, value, low, high=math.inf):
    """int(value); DomainError naming the parameter unless value is an
    integer in [low, high].  Python and numpy ints are compared exactly; an
    integral float such as 5.0 also counts; a bool does not."""
    bounds = "be >= %d" % low if high == math.inf else "lie in [%d, %d]" % (low, high)
    requirement = bounds + " and be an integer"
    exact = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    n = value if exact else check_scalar(name, value, requirement, float.is_integer)
    if not low <= n <= high:
        raise DomainError("must %s, got %r" % (requirement, value), name)
    return int(n)


def check_loop_options(config):
    """(max_iters, trace_stride, plateau_window, plateau_rtol); DomainError
    unless the counts are integers with max_iters >= 0, trace_stride >= 1
    and plateau_window None or >= 1, and plateau_rtol is a nonnegative,
    finite real number."""
    window = config.plateau_window
    return (
        check_count("max_iters", config.max_iters, 0),
        check_count("trace_stride", config.trace_stride, 1),
        None if window is None else check_count("plateau_window", window, 1),
        check_scalar("plateau_rtol", config.plateau_rtol, "be nonnegative and finite",
                     lambda x: 0.0 <= x < math.inf),
    )


def check_batch_size(batch_size, n_samples):
    """The per-iteration sample count: n_samples when batch_size is None;
    DomainError unless it is an integer in [1, n_samples]."""
    return n_samples if batch_size is None else check_count("batch_size", batch_size, 1, n_samples)


def float_copy(name, value, shape):
    """A float copy of a caller's array (a start vector, say); DomainError
    unless it has the given shape."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        raise DomainError("%s must have shape %s" % (name, shape))
    return out


def batch_capacity(n_samples, n_features):
    """How many records drive evaluates together: BATCH_RECORDS, or fewer,
    but at least 1, when their (K, L) margins and (N, K) vectors would
    pass BATCH_BYTES.  One batch is in flight while the next one fills, so
    the copies of the filling batch's vectors come on top, K N floats."""
    return max(1, min(BATCH_RECORDS, BATCH_BYTES // (8 * (n_samples + n_features))))


def drive(options, start, problem, objective, step, snapshot, reference=None, callback=None):
    """Run a solver's iterations and return its ConvergenceTrace.

    options is the (max_iters, trace_stride, plateau_window, plateau_rtol)
    tuple of check_loop_options, which the solver's own check has made.
    start is the perf_counter reading at which the solver's setup began;
    setup_seconds and every record's seconds count from it.  step(i)
    performs iteration i (0-based) and returns the iterate passed to
    callback(i + 1, w).  A record is taken at iteration 0, every
    trace_stride iterations and after the last one.  snapshot() gives the
    vector the solver would return at that point, and every field of a
    record is of it: the clock reading, its dist_ref to reference and its
    zeros are taken at once, and the record waits with a copy of it.
    objective(problem, W), the solver module's own binding, evaluates an
    (N, K) stack of waiting vectors on one worker thread while the steps
    go on: a batch is submitted when batch_capacity(L, N) records wait and
    when the loop ends, and one batch is in flight while the next one
    fills.  The batch in flight is settled, its records appended whole in
    iteration order, before the next submit and when the loop ends; with
    plateau_window set, each record is a batch that is settled as soon as
    it is submitted, since the plateau rule reads the newest objective.
    So every objective keeps the bits of its own call, the last record is
    the summary of the vector the run returns, and a record's seconds do
    not count its objective.  step, snapshot, callback and the clock run
    on the calling thread; an error of objective is raised there, at the
    settle, and a run that raises leaves no thread running.  A reference
    of another shape than (N,) is a DomainError before the first step.
    trace.extra["stop_reason"] is "plateau" when the plateau rule stopped
    the run, "budget" when it ran all max_iters iterations (0 included).
    """
    max_iters, stride, window, rtol = options
    N = problem.n_features
    if reference is not None and np.shape(reference) != (N,):
        raise DomainError("must have shape (%d,), got %s" % (N, np.shape(reference)), "reference")
    capacity = 1 if window is not None else batch_capacity(problem.n_samples, N)
    trace = ConvergenceTrace(setup_seconds=time.perf_counter() - start)
    waiting = []  # (iteration, seconds, dist_ref, zeros_exact, zeros_tol, copy of the vector)
    in_flight = []  # at most one (records, future of their objectives)

    def settle():
        if in_flight:
            taken, values = in_flight.pop()
            for (iteration, seconds, dist, exact, tol, _), value in zip(taken, values.result()):
                trace.append(TraceRecord(iteration, seconds, float(value), dist, exact, tol))

    def submit():
        settle()
        stack = np.stack([taken[-1] for taken in waiting], axis=1)
        in_flight.append((waiting[:], worker.submit(objective, problem, stack)))
        waiting.clear()

    def record(iteration):
        seconds = time.perf_counter() - start
        w = snapshot()
        dist = None if reference is None else float(np.linalg.norm(w - reference))
        waiting.append((iteration, seconds, dist, int(np.count_nonzero(w == 0.0)),
                        int(np.count_nonzero(np.abs(w) <= ZEROS_TOL)), w.copy()))
        if len(waiting) == capacity:
            submit()
            if window is not None:
                settle()

    # leaving the with block waits for the batch in flight, also when a
    # step or an objective raised
    with ThreadPoolExecutor(max_workers=1) as worker:
        record(0)
        stopped = False
        for i in range(max_iters):
            w = step(i)
            if callback is not None:
                callback(i + 1, w)
            if (i + 1) % stride == 0 or i + 1 == max_iters:
                record(i + 1)
                if window is not None and plateau_hit(trace, window, rtol):
                    stopped = True
                    break
        if waiting:
            submit()
        settle()
    trace.extra["stop_reason"] = "plateau" if stopped else "budget"
    return trace
