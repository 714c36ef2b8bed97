"""Tests for trace records, their validation, the CSV round trip, and the
one check of every number a caller passes."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit.errors import DomainError, ParseError
from proxsplit.trace import check_count, check_scalar
from conftest import FINITE_FLOATS, make_problem


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


def test_a_record_is_frozen():
    record = sample_trace().records[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.objective = 0.0
    assert record.objective == 2.0


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


# ----------------------------------------------------------- caller numbers

def _problem():
    return make_problem(6, 12, 2, lam=0.4, seed=3)


# (site, parameter named in the message, call): each site that takes a
# number from a caller rejects a fraction, a string, a bool or a 0-d array
# by name instead of truncating, parsing or ignoring it
BAD_NUMBERS = [
    ("spec-kappa-fractions", "block kappa",
     lambda: px.RegularizerSpec(lam=1.0, kappa=(1.9, 2.2))),
    ("spec-kappa-bool", "kappa", lambda: px.RegularizerSpec(lam=1.0, kappa=True)),
    ("spec-lam-string", "lam", lambda: px.RegularizerSpec(lam="1")),
    ("partition-fraction", "offset", lambda: px.BlockPartition((0, 2.5, 5))),
    ("partition-strings", "offset", lambda: px.BlockPartition(("0", "3"))),
    ("dr-tau-string", "tau", lambda: px.resolve_config(_problem(), px.DRConfig(tau="2"))),
    ("dr-mu-0d-array", "mu",
     lambda: px.resolve_config(_problem(), px.DRConfig(mu=np.array(1.2)))),
    ("batch-string", "batch_size",
     lambda: px.resolve_config(_problem(), px.DRConfig(batch_size="3"))),
    ("batch-bool", "batch_size",
     lambda: px.resolve_config(_problem(), px.DRConfig(batch_size=True))),
    ("count-beyond-2**53", "n", lambda: check_count("n", 2**53 + 1, 0, 2**53)),
    ("reference-factor", "long_run_factor",
     lambda: px.compute_reference(_problem(), "dr", px.DRConfig(max_iters=5),
                                  long_run_factor=2.5)),
    ("reference-max-iters", "max_iters",
     lambda: px.compute_reference(_problem(), "dr", px.DRConfig(max_iters=5.5))),
    ("opnorm-max-iters", "max_iters",
     lambda: px.operator_norm_sq(_problem().data.features, max_iters=1.5)),
    ("opnorm-rtol-string", "rtol",
     lambda: px.operator_norm_sq(_problem().data.features, rtol="1e-3")),
    ("eval-w-r-string", "branch parameter r", lambda: px.eval_w("1", 1.0)),
    ("eval-w-v-string", "v", lambda: px.eval_w(1.0, "1")),
    ("eval-w-tol-negative", "tol", lambda: px.eval_w(1.0, 1.0, tol=-1.0)),
    ("eval-w-max-iters-fraction", "max_iters", lambda: px.eval_w(1.0, 1.0, max_iters=2.5)),
    ("drive-plateau-rtol", "plateau_rtol",
     lambda: px.run(_problem(), px.DRConfig(plateau_window=2, plateau_rtol=-1))),
    ("rng-negative-seed", "seed", lambda: px.make_rng(-1)),
    ("rng-fraction-seed", "seed", lambda: px.make_rng(2.5)),
    ("sparsity-tol-string", "tol", lambda: px.sparsity_degree(np.ones(3), tol="0")),
]


@pytest.mark.parametrize("name,call", [case[1:] for case in BAD_NUMBERS],
                         ids=[case[0] for case in BAD_NUMBERS])
def test_every_site_rejects_a_bad_number_by_name(name, call):
    with pytest.raises(DomainError, match="^%s must " % re.escape(name)):
        call()


def test_check_count_compares_integers_exactly():
    assert check_count("n", 2**53 + 1, 0) == 2**53 + 1
    assert check_count("n", 5.0, 0) == 5
    assert check_count("n", np.int64(3), 0, 3) == 3
    assert all(type(check_count("n", v, 0)) is int for v in (5.0, np.int64(3), np.uint8(2)))


def test_check_scalar_takes_real_numbers_by_type():
    assert check_scalar("x", np.float32(0.5), "be a number", lambda x: True) == 0.5
    assert check_scalar("x", 3, "be a number", lambda x: True) == 3.0
    for bad in ("2", True, np.array(1.2), [1.0], None, 1j, np.bool_(True)):
        with pytest.raises(DomainError, match="^x must be a number, got "):
            check_scalar("x", bad, "be a number", lambda x: True)
