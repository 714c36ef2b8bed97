"""Tests for the sparse text-format reader/writer and label handling."""

import gzip
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit import data
from proxsplit.errors import (
    DegenerateDatasetError,
    DomainError,
    ParseError,
    UnknownClassError,
)
from conftest import FINITE_FLOATS
from oracles import csr_from_rows


def row_entries(raw):
    """Per sample, the (1-based index, value) pairs stored in raw.features."""
    X = raw.features
    return tuple(tuple(zip((X.indices[a:b] + 1).tolist(), X.data[a:b].tolist()))
                 for a, b in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist()))


def assert_same_csr(A, B):
    """Same shape, sorted indices, and the same dtype and bytes in every array."""
    assert A.format == B.format == "csr" and A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
    assert A.has_sorted_indices and B.has_sorted_indices


# ----------------------------------------------------------------- parsing

def test_parse_basic():
    raw = px.parse_libsvm("+1 1:2.5 3:-1\n-1 2:0.5\n")
    assert raw.labels == (1.0, -1.0)
    assert row_entries(raw) == (((1, 2.5), (3, -1.0)), ((2, 0.5),))
    assert raw.n_features == 3
    assert raw.n_samples == 2
    assert raw.class_labels() == [-1.0, 1.0]


def test_parse_skips_comments_and_blanks():
    raw = px.parse_libsvm("# header\n\n+1 1:1\n   \n-1 1:2\n")
    assert raw.n_samples == 2


def test_parse_empty_text():
    raw = px.parse_libsvm("")
    assert raw.n_samples == 0
    assert raw.n_features == 0
    assert px.serialize_libsvm(raw) == ""


def test_parse_declared_dimension(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("+1 1:1\n")
    assert px.parse_libsvm("+1 1:1\n", n_features=10).n_features == 10
    with pytest.raises(ParseError, match="line 1: feature index 3 exceeds declared dimension 2"):
        px.parse_libsvm("+1 3:1\n", n_features=2)
    assert px.parse_libsvm("+1 1:1\n", n_features=3.0).n_features == 3
    for bad in (-1, 2**63, 2**70, True, 2.5, "3"):
        with pytest.raises(DomainError, match=r"^n_features must lie in \[0, 9223372036854775807\] "
                                              r"and be an integer, got "):
            px.parse_libsvm("+1 1:1\n", n_features=bad)
        with pytest.raises(DomainError, match="^n_features must lie in"):
            px.load_libsvm(path, n_features=bad)


@pytest.mark.parametrize("text,msg", [
    ("abc 1:1\n", "line 1: bad label 'abc'"),
    ("nan 1:1\n", "line 1: non-finite label 'nan'"),
    ("1 1:inf\n", "line 1: non-finite value 'inf'"),
    ("1 3:\n", "line 1: bad feature token '3:'"),
    ("1 a:1\n", "line 1: bad feature token 'a:1'"),
    ("1 0:1\n", "line 1: feature index 0"),
    ("1 2:1 1:2\n", "line 1: feature index 1 after 2"),
    ("1 2:1 2:2\n", "line 1: feature index 2 after 2"),
    ("1 1:1\n1 99999999999999999999:1\n",
     "line 2: feature index 99999999999999999999 exceeds the int64 range"),
])
def test_parse_errors_carry_line_numbers(text, msg):
    with pytest.raises(ParseError) as exc:
        px.parse_libsvm(text)
    assert msg in str(exc.value)


def test_parse_error_line_numbers_count_raw_lines():
    with pytest.raises(ParseError, match="line 4"):
        px.parse_libsvm("1 1:1\n\n# c\n1 0:1\n")


def bits(labels, rows):
    """Labels and (index, value) rows with every float as its exact bit pattern."""
    return ([x.hex() for x in labels],
            [[(j, v.hex()) for j, v in row] for row in rows])


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(st.tuples(FINITE_FLOATS, st.dictionaries(st.integers(1, 2**31),
                                                                FINITE_FLOATS, max_size=6)),
                        max_size=8))
@example(samples=[(1.0, {j + 1: v for j, v in
                         enumerate((math.pi, -1.0 / 3.0, 2.5e-17, 1e300, -7.0))})])
def test_round_trip_preserves_floats_exactly(samples):
    labels = [label for label, _ in samples]
    rows = [sorted(row.items()) for _, row in samples]
    text = "".join(" ".join([repr(label)] + ["%d:%r" % entry for entry in row]) + "\n"
                   for label, row in zip(labels, rows))
    raw = px.parse_libsvm(text)
    again = px.parse_libsvm(px.serialize_libsvm(raw))
    assert bits(raw.labels, row_entries(raw)) == bits(labels, rows)
    assert bits(again.labels, row_entries(again)) == bits(labels, rows)
    assert again.n_features == raw.n_features == max((j for row in rows for j, _ in row),
                                                     default=0)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.dictionaries(st.one_of(st.integers(1, 40), st.integers(1, 2**31 + 1)),
                                     FINITE_FLOATS, max_size=6), max_size=8),
       extra=st.none() | st.integers(0, 5), widen=st.sampled_from((0, 3, 2**31)))
@example(rows=[{1: 0.0, 3: -0.0}, {}, {2: 5e-324, 4: -1.5}], extra=None, widen=0)
@example(rows=[{}, {2: -0.0}, {}], extra=4, widen=3)
@example(rows=[{2**31: 1.0}], extra=None, widen=0)
@example(rows=[{1: 0.0}], extra=1, widen=2**31)
@example(rows=[], extra=None, widen=0)
def test_parsed_csr_matches_the_row_conversion(rows, extra, widen):
    rows = [sorted(row.items()) for row in rows]
    text = "".join(" ".join(["1"] + ["%d:%r" % entry for entry in row]) + "\n" for row in rows)
    largest = max((j for row in rows for j, _ in row), default=0)
    declared = None if extra is None else largest + extra
    raw = px.parse_libsvm(text, n_features=declared)
    assert_same_csr(raw.features, csr_from_rows(rows, largest if declared is None else declared))
    width = raw.n_features + widen
    assert_same_csr(px.to_matrix(raw, n_features=width)[0], csr_from_rows(rows, width))
    if rows and width:
        assert_same_csr(px.binarize(raw, 1.0, n_features=width).features,
                        csr_from_rows(rows, width))


def w8a_shaped_text(samples):
    """Text of the w8a shape, 300 binary features at 4.4% density, and its
    entry count."""
    rng = np.random.default_rng(0)
    lines, stored = [], 0
    for i in range(samples):
        columns = np.flatnonzero(rng.random(300) < 0.044) + 1
        stored += len(columns)
        lines.append(" ".join(["+1" if i % 5 == 0 else "-1"] + ["%d:1" % j for j in columns]))
    return "\n".join(lines) + "\n", stored


def test_parse_and_binarize_keep_no_per_entry_objects(tmp_path):
    # Per-entry Python objects cost over 100 traced bytes per entry; flat
    # buffers plus the int32 index copy about 24.
    text, stored = w8a_shaped_text(4000)
    path = tmp_path / "train.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        raw = px.load_libsvm(str(path))
        tset = px.binarize(raw, None, n_features=raw.n_features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tset.features.nnz == stored
    assert peak / stored <= 48


def outcome(parse):
    """What a parse gives, bit for bit: the labels (as Python floats), the
    shape and the CSR arrays with their dtypes, or the ParseError's message
    and line number."""
    try:
        raw = parse()
    except ParseError as exc:
        return str(exc), exc.line_number
    X = raw.features
    assert all(type(label) is float for label in raw.labels)
    return ([label.hex() for label in raw.labels], X.shape,
            [(a.dtype.str, a.tobytes()) for a in (X.data, X.indices, X.indptr)])


def both_paths(text, n_features=None):
    """Outcomes of parse_libsvm on the text and of the line loop alone on
    the text's lines, which end at \\n, \\r\\n or a lone \\r."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return (outcome(lambda: px.parse_libsvm(text, n_features=n_features)),
            outcome(lambda: data._parse_lines(lines, n_features)))


BLANKS = st.text(" \t", min_size=1, max_size=3)
# label and value tokens: serialize_libsvm's and repr's forms, signed
# integers with leading zeros (16 and more digits too), and hand-picked forms
NUMBERS = st.one_of(
    FINITE_FLOATS.map(lambda x: format(x, ".17g")),
    FINITE_FLOATS.map(repr),
    st.builds(lambda sign, zeros, n: sign + zeros + str(n), st.sampled_from(("", "+", "-")),
              st.text("0", max_size=2), st.integers(0, 10**40)),
    st.sampled_from(("-0", "+0", "-0.0", "0e0", ".5", "5.", "-1E-3", "1e308", "2.5e-320",
                     "9999999999999999999", "-9223372036854775809")),
)
# index tokens the vectorized path reads itself: up to 15 unsigned digits
INDEXES = st.builds(lambda zeros, n: (zeros + str(n))[-15:], st.text("0", max_size=3),
                    st.integers(1, 10**15 - 1))
# one inserted line, or a rewrite of the whole text, that the vectorized
# path must leave to the loop
LINE_MUTATIONS = ("# comment", "1 1:2:3", "1 3: 4", "1 3 :4", "1 :4", "1 4:", "1 +3:1", "1 1_0:1",
                  "1_0 1:1", "1 1:\u0661", "\u0661 1:1", "1 1:1\u00a0", "1 3:1 2:1", "1 0:1",
                  "1 2:1 2:1", "1 -3:1", "1 1.0:1", "1 1e2:1", "1 1:inf", "1 1:nan", "nan 1:1",
                  "inf", "1 1:1e999", "1e999 1:1", "1 123456789012345678:1", "1:1", "1 2", "1 1:1 3",
                  "1 2 3:1", "+", "1 1:-", "1 1:e", "1 1:.")
TEXT_MUTATIONS = (lambda t: t.replace("\n", "\r\n"), lambda t: t.replace("\n", "\r"),
                  lambda t: t.replace("\n", "\f", 1), lambda t: t.replace(" ", "\x0b", 1),
                  lambda t: t.replace(" ", "\x1c", 1))


@st.composite
def libsvm_texts(draw):
    """(text, declared n_features, canonical): canonical texts follow the
    grammar with every index within the declared dimension."""
    lines, largest = [], 0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(("", " ", "\t ", "  "))))
        width = draw(st.integers(0, 6))
        indices = sorted(draw(st.lists(INDEXES, max_size=width, unique_by=int)), key=int)
        entries = ["%s:%s" % (j, draw(NUMBERS)) for j in indices]
        largest = max([largest] + [int(j) for j in indices])
        parts = [draw(NUMBERS)]
        for entry in entries:
            parts += [draw(BLANKS), entry]
        if draw(st.booleans()):
            parts.append(draw(BLANKS))
        lines.append("".join(parts))
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "")))
    declared = draw(st.none() | st.integers(max(largest - 2, 0), largest + 2))
    canonical = declared is None or declared >= largest
    if lines and draw(st.booleans()):
        canonical = False
        if draw(st.booleans()):
            text = draw(st.sampled_from(TEXT_MUTATIONS))(text)
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(LINE_MUTATIONS)))
            text = "\n".join(lines) + "\n"
    return text, declared, canonical


@settings(max_examples=400, deadline=None)
@given(case=libsvm_texts())
@example(case=("+1 1:2.5 3:-1 \n\n-1\t\t2:-0\n 0 \n-1 007:1e5", None, True))
@example(case=("1 2:1\n1 5:1\n", 4, False))
@example(case=("1 1:1\n# c\n1 2:1\n", None, False))
def test_parse_paths_agree_bit_for_bit(case):
    text, declared, canonical = case
    fast, loop = both_paths(text, declared)
    assert fast == loop
    if canonical:
        assert data._parse_text(text, declared) is not None
        again = px.serialize_libsvm(px.parse_libsvm(text, n_features=declared))
        assert data._parse_text(again, None) is not None
        fast, loop = both_paths(again)
        assert fast == loop


@pytest.mark.parametrize("line", LINE_MUTATIONS)
def test_every_line_the_vectorized_path_leaves_to_the_loop(line):
    lines = ["+1 1:2.5 3:-1", "", "-1 2:-0 007:9999999999999999999", "0", "2 1:+5 4:-0.5e-3"]
    for position in (0, 3, len(lines)):
        text = "\n".join(lines[:position] + [line] + lines[position:]) + "\n"
        assert data._parse_text(text, 8) is None
        fast, loop = both_paths(text, 8)
        assert fast == loop
    assert data._parse_text("\n".join(lines), 8) is not None


def test_parse_of_an_iterable_of_lines_gives_the_text_parse(tmp_path):
    text = "+1 1:2.5 3:-1\n# comment\n\n-1 2:0.5 7:1e-3\r\n0 4:-0\n"
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode())
    want = outcome(lambda: px.parse_libsvm(text))
    assert outcome(lambda: px.parse_libsvm(text.splitlines(keepends=True))) == want
    assert outcome(lambda: px.parse_libsvm(text.splitlines())) == want
    with open(path) as handle:
        assert outcome(lambda: px.parse_libsvm(handle)) == want


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    """A plain and a gzip path in one directory, rewritten by each example."""
    folder = tmp_path_factory.mktemp("bytes")
    return folder / "data.txt", folder / "data.txt.gz"


@settings(max_examples=200, deadline=None)
@given(case=libsvm_texts())
@example(case=("", None, True))
@example(case=("+1 1:2.5 3:-1\n-1 2:-0", None, True))
@example(case=("+1 1:2.5 3:-1\r\n-1 2:-0\r\n", None, False))
@example(case=("+1 1:2.5 3:-1\r-1 2:-0\r", 3, False))
@example(case=("+1 1:2.5\n\u0661 1:1\n", None, False))
def test_load_of_the_bytes_agrees_with_the_text_parse(data_files, case):
    # load_libsvm hands a file's bytes to the vectorized path and decodes
    # them for the loop only when that path gives up
    text, declared, _ = case
    want = outcome(lambda: px.parse_libsvm(text, n_features=declared))
    plain, gz = data_files
    plain.write_bytes(text.encode("utf-8"))
    gz.write_bytes(gzip.compress(text.encode("utf-8")))
    for path in (plain, gz):
        assert outcome(lambda: px.load_libsvm(str(path), n_features=declared)) == want


def test_load_of_bytes_that_are_not_utf8_raises_unicode_error(tmp_path):
    path = tmp_path / "data.txt"
    for content in (b"\xff", b"+1 1:1\n-1 2:\xff\n"):
        path.write_bytes(content)
        with pytest.raises(UnicodeDecodeError):
            px.load_libsvm(str(path))


def test_w8a_shaped_bytes_take_the_vectorized_path(tmp_path):
    text, stored = w8a_shaped_text(1000)
    assert data._parse_text(text, None) is not None
    fast, loop = both_paths(text)
    assert fast == loop and len(fast[2][0][1]) == 8 * stored
    path = tmp_path / "train.txt"
    path.write_bytes(text.encode("ascii"))
    assert outcome(lambda: px.load_libsvm(str(path))) == fast


def test_serialize_shape():
    raw = px.parse_libsvm("+1 1:2.5 3:-1\n-1 2:0.5\n")
    assert px.serialize_libsvm(raw) == "1 1:2.5 3:-1\n-1 2:0.5\n"


# ------------------------------------------------------------------ file IO

def test_load_plain_and_gzip(tmp_path):
    raw = px.parse_libsvm("+1 1:0.1 4:-2.5\n-1 2:3.0\n")
    plain = tmp_path / "data.txt"
    plain.write_text(px.serialize_libsvm(raw))
    assert_same_csr(px.load_libsvm(str(plain)).features, raw.features)
    gz = tmp_path / "data.txt.gz"
    with gzip.open(gz, "wt") as f:
        f.write(px.serialize_libsvm(raw))
    assert_same_csr(px.load_libsvm(str(gz)).features, raw.features)


def test_chunked_parse_matches_the_loop_and_reports_true_lines(tmp_path):
    rng = np.random.default_rng(7)
    lines = []
    while sum(len(line) + 1 for line in lines) < 6 * data._CHUNK:
        columns = np.sort(rng.choice(5000, rng.integers(0, 40), replace=False)) + 1
        values = rng.choice(["1", "-0", "0.25", "-3e-2", "17", "000123456789012345"], len(columns))
        lines.append(" ".join([str(rng.choice(["+1", "-1", "2"]))]
                              + ["%d:%s" % entry for entry in zip(columns, values)]))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "  ", "\t"]))
    # one line longer than a chunk, in the middle of the file
    middle = len(lines) // 2
    lines.insert(middle, "1 " + " ".join("%d:%d" % (j, j % 7) for j in range(1, 8000)))
    assert len(lines[middle]) > data._CHUNK
    text = "\n".join(lines) + "\n"
    assert data._parse_text(text, None) is not None
    fast, loop = both_paths(text)
    assert fast == loop and len(fast[0]) == sum(1 for line in lines if line.strip())

    plain, gz = tmp_path / "data.txt", tmp_path / "data.txt.gz"
    plain.write_text(text)
    with gzip.open(gz, "wt") as f:
        f.write(text)
    assert outcome(lambda: px.load_libsvm(str(plain))) == fast
    assert outcome(lambda: px.load_libsvm(str(gz))) == fast

    # an error planted in the fifth chunk keeps its true line number
    offsets = np.cumsum([len(line) + 1 for line in lines])
    bad = int(np.searchsorted(offsets, 4 * data._CHUNK + 100))
    lines[bad] += " 0:1"
    text = "\n".join(lines) + "\n"
    fast, loop = both_paths(text)
    assert fast == loop and fast[1] == bad + 1
    assert fast[0].startswith("line %d: feature index 0 after " % (bad + 1))
    plain.write_text(text)
    assert outcome(lambda: px.load_libsvm(str(plain))) == fast


def test_load_breaks_lines_at_newlines_only(tmp_path):
    # A string and a file break lines at \n, \r\n and a lone \r only; a
    # form feed, a vertical tab or U+2028 stays inside its line.
    path = tmp_path / "data.txt"
    for text in ("1 1:1\f2:3\n-1 1:2\x0b\n", "1 1:1\r\n-1 2:1\r\n", "1 1:1\f0:3\n",
                 "1 1:1\r-1 2:1\r", "1 1:1\u20282:3\x85\n-1 1:2\x1c3:1\n"):
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as handle:
            expected = outcome(lambda: data._parse_lines(handle, None))
        assert outcome(lambda: px.load_libsvm(str(path))) == expected
        assert outcome(lambda: px.parse_libsvm(text)) == expected


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        px.load_libsvm(str(tmp_path / "nope.txt"))


# ---------------------------------------------------------------- matrices

def test_to_matrix_values():
    raw = px.parse_libsvm("+1 1:2.5 3:-1\n-1 2:0.5\n")
    X, y = px.to_matrix(raw)
    assert X.toarray().tolist() == [[2.5, 0.0, -1.0], [0.0, 0.5, 0.0]]
    assert y.tolist() == [1.0, -1.0]
    X8, _ = px.to_matrix(raw, n_features=8)
    assert X8.shape == (2, 8)
    for M in (X, X8):
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(M, name), getattr(raw.features, name))
    with pytest.raises(DomainError, match="below the dataset"):
        px.to_matrix(raw, n_features=2)
    assert px.to_matrix(raw, n_features=4.0)[0].shape == (2, 4)
    for bad in (2**70, -1, True, 2.5, "3"):
        message = r"^n_features must lie in \[0, 9223372036854775807\] and be an integer, got %s$"
        for call in (px.to_matrix, px.one_vs_all_tasks, lambda r, n_features: px.binarize(
                r, None, n_features=n_features)):
            with pytest.raises(DomainError, match=message % re.escape(repr(bad))):
                call(raw, n_features=bad)


# ------------------------------------------------------------------ labels

def test_binarize_two_classes():
    ds = px.binarize(px.parse_libsvm("0 1:1\n1 1:2\n"))
    assert ds.labels.tolist() == [-1.0, 1.0]  # larger label becomes +1
    ds2 = px.binarize(px.parse_libsvm("-1 1:1\n+1 1:2\n"))
    assert ds2.labels.tolist() == [-1.0, 1.0]
    flipped = px.binarize(px.parse_libsvm("0 1:1\n1 1:2\n"), positive_class=0)
    assert flipped.labels.tolist() == [1.0, -1.0]


def test_binarize_rejects_ambiguity():
    three = px.parse_libsvm("0 1:1\n1 1:2\n2 1:3\n")
    with pytest.raises(DegenerateDatasetError, match="3 distinct labels"):
        px.binarize(three)
    with pytest.raises(UnknownClassError, match="class 7"):
        px.binarize(px.parse_libsvm("0 1:1\n1 1:2\n"), positive_class=7)
    picked = px.binarize(three, positive_class=1)
    assert picked.labels.tolist() == [-1.0, 1.0, -1.0]


def test_one_vs_all_tasks_share_features():
    tasks = px.one_vs_all_tasks(px.parse_libsvm("0 1:1\n1 1:2\n2 2:1\n"))
    assert [lab for lab, _ in tasks] == [0.0, 1.0, 2.0]
    assert tasks[0][1].features is tasks[1][1].features
    assert tasks[0][1].labels.tolist() == [1.0, -1.0, -1.0]
    assert tasks[2][1].labels.tolist() == [-1.0, -1.0, 1.0]
    with pytest.raises(DegenerateDatasetError):
        px.one_vs_all_tasks(px.parse_libsvm("1 1:1\n1 1:2\n"))


def test_predict_one_vs_all_ties_pick_smallest_label():
    X, _ = px.to_matrix(px.parse_libsvm("0 1:1\n1 1:2\n"))
    tie = px.predict_one_vs_all([(1.0, np.array([1.0])), (0.0, np.array([1.0]))], X)
    assert tie.tolist() == [0.0, 0.0]
    clear = px.predict_one_vs_all([(0.0, np.array([-1.0])), (1.0, np.array([1.0]))], X)
    assert clear.tolist() == [1.0, 1.0]
