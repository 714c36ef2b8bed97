"""Tests for trace records, their validation, and the CSV round trip."""

import pytest
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit.errors import DomainError, ParseError
from conftest import FINITE_FLOATS


def sample_trace():
    t = px.ConvergenceTrace(setup_seconds=0.25)
    t.append(px.TraceRecord(iteration=0, seconds=0.0, objective=2.0,
                            dist_ref=None, zeros_exact=3, zeros_tol=4))
    t.append(px.TraceRecord(iteration=10, seconds=0.1, objective=1.0 / 3.0,
                            dist_ref=0.5, zeros_exact=5, zeros_tol=5))
    return t


COUNTS = st.integers(0, 2**40)


@st.composite
def traces(draw):
    iterations = sorted(draw(st.sets(st.integers(0, 2**40), max_size=6)))
    seconds = sorted(draw(st.lists(st.floats(0.0, 1e300), min_size=len(iterations),
                                   max_size=len(iterations))))
    t = px.ConvergenceTrace(setup_seconds=draw(FINITE_FLOATS))
    for iteration, sec in zip(iterations, seconds):
        t.append(px.TraceRecord(iteration=iteration, seconds=sec,
                                objective=draw(FINITE_FLOATS),
                                dist_ref=draw(st.none() | FINITE_FLOATS),
                                zeros_exact=draw(COUNTS), zeros_tol=draw(COUNTS)))
    return t


def bits(t):
    """Every field of a trace, floats by their exact bit pattern."""
    def hexed(x):
        return None if x is None else float(x).hex()

    return hexed(t.setup_seconds), [
        (r.iteration, hexed(r.seconds), hexed(r.objective), hexed(r.dist_ref),
         r.zeros_exact, r.zeros_tol) for r in t.records]


@settings(max_examples=150, deadline=None)
@given(t=traces())
@example(t=sample_trace())
def test_csv_round_trip_is_exact(t):
    assert bits(px.ConvergenceTrace.from_csv(t.to_csv())) == bits(t)


def test_csv_layout():
    lines = sample_trace().to_csv().splitlines()
    assert lines[0] == "# setup_seconds=0.25"
    assert lines[1] == px.trace.CSV_HEADER
    assert lines[2] == "0,0,2,,3,4"  # blank dist_ref when no reference
    assert len(lines) == 4


def test_write_csv_reads_back(tmp_path):
    t = sample_trace()
    path = tmp_path / "trace.csv"
    t.write_csv(str(path))
    assert px.ConvergenceTrace.from_csv(path.read_text()).records == t.records


def test_append_validation():
    t = sample_trace()
    with pytest.raises(DomainError, match="strictly increasing"):
        t.append(px.TraceRecord(iteration=5, seconds=0.2, objective=1.0,
                                dist_ref=None, zeros_exact=0, zeros_tol=0))
    with pytest.raises(DomainError, match="nondecreasing"):
        t.append(px.TraceRecord(iteration=20, seconds=0.05, objective=1.0,
                                dist_ref=None, zeros_exact=0, zeros_tol=0))


def test_final_of_empty_trace_raises():
    with pytest.raises(DomainError, match="empty trace"):
        px.ConvergenceTrace(setup_seconds=0.0).final


def test_from_csv_rejects_malformed():
    with pytest.raises(ParseError, match="no trace header"):
        px.ConvergenceTrace.from_csv("")
    with pytest.raises(ParseError, match="unexpected trace header"):
        px.ConvergenceTrace.from_csv("iter,money\n")
    good = sample_trace().to_csv()
    with pytest.raises(ParseError, match="expected 6 fields"):
        px.ConvergenceTrace.from_csv(good + "1,2,3\n")
    with pytest.raises(ParseError, match="line 1: bad setup_seconds 'abc'"):
        px.ConvergenceTrace.from_csv("# setup_seconds=abc\n" + good)


def test_zeros_tolerance_constant():
    assert px.ZEROS_TOL == 1e-8
