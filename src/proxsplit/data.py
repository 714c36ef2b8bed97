"""Sparse text dataset IO and one-vs-all task generation.

Reads the plain-text sparse format used by the LIBSVM dataset collection:
one sample per line, a numeric label followed by whitespace-separated
``index:value`` pairs with strictly increasing 1-based indices.  Lines end
at ``\\n``, ``\\r\\n`` or a lone ``\\r``, in a string as in a file.  Blank
lines and lines starting with ``#`` are skipped.  Gzip-compressed files
are handled transparently by their ``.gz`` extension.

Text is parsed by one of two paths that return the same dataset bit for
bit.  The vectorized path (``_parse_bytes``) works on bytes: a file's as
read, undecoded, and a string's once encoded, when it is ASCII.  It takes
them in chunks of about 32 KB that end at a newline, classifies every
byte with ``bytes.translate``, checks the grammar ``label (index:value)*``
on every line, reads tokens of the form ``[+-]?[0-9]{1,15}`` by int64
Horner and every other number by Python ``float()``.  It never raises:
on any byte outside ``0-9 + - . e E :``, space, tab and newline (a
non-ASCII byte included), a misplaced colon, an empty token, a signed
index or one of more than 15 digits, an index out of range or out of
order, or a non-finite number, it gives up.  The line loop
(``_parse_lines``) then parses the whole input, a file's decoded as
UTF-8, as it does every iterable of lines; it is the only code that
raises ParseError, so every error carries its message and 1-based line
number.

A parsed dataset is its labels plus one CSR matrix, built once from flat
typed buffers of 0-based column indices, values and row ends, so no
per-entry Python object outlives its line.  The solvers train on it.
"""

import gzip
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateDatasetError, DomainError, ParseError, UnknownClassError
from .model import TrainingSet
from .trace import check_count

# the widest dimension, and so the largest feature index, that scipy's
# int64 index arrays can hold
INDEX_MAX = int(np.iinfo(np.int64).max)

# Byte classes of the vectorized parse.  Class 0 is every byte it leaves to
# the line loop (``#``, ``\r``, ``_``, letters other than e and E, any byte
# above 127, ...); the bytes of a number other than its digits come first,
# and classes from _COLON up separate tokens.
_SIGN, _NUMBER, _DIGIT, _COLON, _BLANK, _NEWLINE = range(1, 7)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[list(b"+-")] = _SIGN
_CLASS[list(b".eE")] = _NUMBER
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b":")] = _COLON
_CLASS[list(b" \t")] = _BLANK
_CLASS[list(b"\n")] = _NEWLINE
_CLASS = _CLASS.tobytes()  # as a bytes.translate table
_COLON_BYTE, _NEWLINE_BYTE, _PLUS_BYTE, _MINUS_BYTE, _ZERO_BYTE = b":\n+-0"

# Bytes per chunk of the vectorized parse; a chunk's temporaries are a few
# hundred KB.
_CHUNK = 1 << 15

# Integers of up to 15 digits are exact in int64 Horner and in a double.
_EXACT_DIGITS = 15


@dataclass(frozen=True)
class RawDataset:
    """Parsed sparse dataset before any label normalization.

    Attributes
    ----------
    labels : tuple of float
        Raw label of each sample, in file order.
    features : scipy.sparse.csr_matrix, shape (n_samples, n_features)
        Row i holds sample i's values as written (explicit zeros and -0.0
        included) at 0-based, strictly increasing columns.  The width is
        the declared dimension if given, else the largest index seen.
    """

    labels: tuple
    features: sp.csr_matrix

    @property
    def n_samples(self):
        return len(self.labels)

    @property
    def n_features(self):
        return self.features.shape[1]

    def class_labels(self):
        """Distinct raw labels in increasing order."""
        return sorted(set(self.labels))


def parse_libsvm(source, n_features=None):
    """Parse sparse ``label idx:val ...`` text into a RawDataset.

    A ``str`` goes to the vectorized path first; when that path meets
    anything it does not handle, the line loop parses the whole text, as
    it does every iterable of lines.  Only the loop raises ParseError, so
    every error carries the loop's message and line number, and both paths
    return the same dataset bit for bit.

    Parameters
    ----------
    source : str or iterable of str
        Full text, or an iterable of lines (an open file works).  A string
        is split into lines at ``\\n``, ``\\r\\n`` and lone ``\\r``, as a
        file opened in text mode is; other line separators such as ``\\f``
        or ``\\u2028`` are whitespace inside a line.
    n_features : int, optional
        Declared dimension.  Indices beyond it are an error; without it
        the dimension is the largest index seen.

    Raises
    ------
    DomainError
        If the declared dimension is not an integer in [0, INDEX_MAX].
    ParseError
        On a malformed token, a non-finite number, a non-increasing
        feature index, or an index exceeding the declared dimension or
        the int64 range.  The message carries the 1-based line number.
    """
    n_features = _declared(n_features)
    if not isinstance(source, str):
        return _parse_lines(source, n_features)
    raw = _parse_text(source, n_features)
    return raw if raw is not None else _parse_lines(io.StringIO(source, newline=None), n_features)


def load_libsvm(path, n_features=None):
    """parse_libsvm on a file's UTF-8 text; `.gz` paths are decompressed on the fly.

    The vectorized path reads the file's bytes as they are; only when it
    gives up is the text decoded, so a file that is not UTF-8 raises
    UnicodeDecodeError.
    """
    n_features = _declared(n_features)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as handle:
        content = handle.read()
    raw = _parse_bytes(content, n_features)
    if raw is None:
        raw = _parse_lines(io.StringIO(content.decode("utf-8"), newline=None), n_features)
    return raw


def _declared(n_features):
    """The declared dimension checked as an integer in [0, INDEX_MAX], or None."""
    return None if n_features is None else check_count("n_features", n_features, 0, INDEX_MAX)


def _dataset(labels, values, indices, indptr, n_features):
    """RawDataset of typed label, value, 0-based index and row-end buffers."""
    dimension = int(np.max(indices, initial=-1)) + 1 if n_features is None else n_features
    # scipy wraps the buffers without a copy (then downcasts the index
    # arrays to int32 when they fit).
    features = sp.csr_matrix((values, indices, indptr), shape=(len(labels), dimension))
    return RawDataset(labels=tuple(labels), features=features)


def _parse_lines(lines, n_features):
    """The line loop: the only parser that raises ParseError.  n_features is
    None or already checked."""
    limit = INDEX_MAX if n_features is None else n_features
    labels = []
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError("bad label %r" % tokens[0], line_number=lineno) from None
        if not math.isfinite(label):
            raise ParseError("non-finite label %r" % tokens[0], line_number=lineno)
        previous = 0
        for token in tokens[1:]:
            index_text, sep, value_text = token.partition(":")
            if not sep:
                raise ParseError("bad feature token %r" % token, line_number=lineno)
            try:
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise ParseError("bad feature token %r" % token, line_number=lineno) from None
            if index <= previous:
                raise ParseError(
                    "feature index %d after %d (must be strictly increasing, 1-based)"
                    % (index, previous),
                    line_number=lineno,
                )
            if not math.isfinite(value):
                raise ParseError("non-finite value %r" % value_text, line_number=lineno)
            if index > limit:
                bound = "the int64 range" if n_features is None else "declared dimension %d" % limit
                raise ParseError("feature index %d exceeds %s" % (index, bound), line_number=lineno)
            indices.append(index - 1)
            values.append(value)
            previous = index
        labels.append(label)
        indptr.append(len(indices))
    return _dataset(labels, values, indices, indptr, n_features)


def _parse_text(text, n_features):
    """_parse_bytes on an ASCII string; None for any other string."""
    return _parse_bytes(text.encode("ascii"), n_features) if text.isascii() else None


def _parse_bytes(content, n_features):
    """The vectorized path: the RawDataset of the bytes `content`, or None
    when they hold anything this path leaves to the line loop.  n_features
    is None or already checked.

    The bytes are read in chunks of about _CHUNK bytes that end at a
    newline; the outputs are allocated once, one entry per ``:``.
    """
    limit = INDEX_MAX if n_features is None else n_features
    whole = np.frombuffer(content, dtype=np.uint8)
    entries = np.count_nonzero(whole == _COLON_BYTE)
    # scipy keeps int32 indices when they fit, so int32 spares it a copy
    indices = np.empty(entries, dtype=np.int32)
    values = np.empty(entries, dtype=np.float64)
    labels = np.empty(np.count_nonzero(whole == _NEWLINE_BYTE) + 1, dtype=np.float64)
    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    rows = stored = start = 0
    while start < len(content):
        stop = content.find(b"\n", start + _CHUNK - 1) + 1
        stop = stop if stop > 0 else len(content)
        parsed = _parse_chunk(content[start:stop], limit)
        if parsed is None:
            return None
        chunk_labels, row_ends, chunk_indices, chunk_values = parsed
        n, k = len(chunk_labels), len(chunk_indices)
        if np.max(chunk_indices, initial=0) > np.iinfo(indices.dtype).max:
            indices = indices.astype(np.int64)
        labels[rows:rows + n] = chunk_labels
        indptr[rows + 1:rows + n + 1] = row_ends + stored
        indices[stored:stored + k] = chunk_indices - 1
        values[stored:stored + k] = chunk_values
        rows, stored, start = rows + n, stored + k, stop
    return _dataset(labels[:rows].tolist(), values, indices, indptr[:rows + 1], n_features)


def _parse_chunk(chunk, limit):
    """(labels, row ends, 1-based indices, values) of the whole lines in the
    bytes `chunk`, or None when they hold anything the vectorized path
    leaves to the loop."""
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    kinds = chunk.translate(_CLASS)
    if b"\0" in kinds:
        return None
    b, kind = np.frombuffer(chunk, dtype=np.uint8), np.frombuffer(kinds, dtype=np.uint8)
    # Tokens are the runs between blanks, colons and newlines; token t is
    # b[starts[t]:ends[t]].  The chunk ends in a newline, so edges pair up.
    sep = kind >= _COLON
    edge = np.empty_like(sep)
    edge[0] = not sep[0]
    np.not_equal(sep[1:], sep[:-1], out=edge[1:])
    edges = np.flatnonzero(edge)
    starts, ends = edges[0::2], edges[1::2]
    tokens = len(starts)
    # An index token ends at a colon, a value token starts after one; every
    # colon must do both, and a label must be exactly a line's first token.
    # Each line then reads ``label (index value)*``.
    index = b[ends] == _COLON_BYTE
    value = b[starts - 1] == _COLON_BYTE
    colons = np.count_nonzero(kind == _COLON)
    if np.count_nonzero(index) != colons or np.count_nonzero(value) != colons:
        return None
    first = np.zeros(tokens, dtype=bool)
    first[:1] = True
    after_newline = np.searchsorted(starts, np.flatnonzero(kind == _NEWLINE))
    first[after_newline[after_newline < tokens]] = True
    if np.any(index & value) or np.any(first == (index | value)):
        return None
    # Exact tokens, [+-]?[0-9]{1,15}, are read by Horner in int64, where they
    # cannot overflow, and the sign is applied afterwards so -0 stays -0.0.
    # Past its leading sign an exact token holds no sign or number byte.
    head = b[starts]
    minus = head == _MINUS_BYTE
    sign = minus | (head == _PLUS_BYTE)
    odd = kind < _DIGIT
    odd[starts[sign]] = False
    digits = ends - starts - sign
    exact = (digits >= 1) & (digits <= _EXACT_DIGITS)
    exact[np.searchsorted(starts, np.flatnonzero(odd), "right") - 1] = False
    if np.any(index & (sign | ~exact)):
        return None
    position = ends - 1
    magnitude = b[position].astype(np.int64)
    magnitude -= _ZERO_BYTE
    scale = 1
    for place in range(1, int(np.max(digits, initial=0, where=exact))):
        position -= 1
        scale *= 10
        digit = b[position].astype(np.int64)
        digit -= _ZERO_BYTE
        digit *= digits > place
        digit *= scale
        magnitude += digit
    number = magnitude.astype(np.float64)
    negative = np.flatnonzero(minus & exact)
    number[negative] = -number[negative]
    other = np.flatnonzero(~exact)
    try:
        number[other] = [float(chunk[a:z]) for a, z in zip(starts[other].tolist(),
                                                           ends[other].tolist())]
    except ValueError:
        return None
    if not np.isfinite(number[other]).all():
        return None
    at = np.flatnonzero(index)
    chunk_indices = magnitude[at]
    # label r is token label_at[r], after r labels and two tokens per entry
    label_at = np.flatnonzero(first)
    row_starts = (label_at - np.arange(len(label_at))) >> 1
    previous = np.zeros(len(chunk_indices) + 1, dtype=np.int64)
    previous[1:] = chunk_indices
    previous[row_starts] = 0
    if np.any(chunk_indices <= previous[:-1]) or np.max(chunk_indices, initial=0) > limit:
        return None
    row_ends = np.append(row_starts, len(chunk_indices))[1:]
    return number[label_at], row_ends, chunk_indices, number[at + 1]


def serialize_libsvm(raw, sink=None):
    """Write a RawDataset back to text, round-tripping every number exactly.

    Returns the text when `sink` is None, else writes to the file-like
    `sink` and returns None.  17 significant digits reproduce any float
    bit-for-bit through parse_libsvm.
    """
    X = raw.features
    indptr, indices, data = X.indptr.tolist(), X.indices.tolist(), X.data.tolist()
    pieces = []
    for i, label in enumerate(raw.labels):
        entries = range(indptr[i], indptr[i + 1])
        parts = [format(label, ".17g")]
        parts.extend("%d:%s" % (indices[k] + 1, format(data[k], ".17g")) for k in entries)
        pieces.append(" ".join(parts))
    text = "\n".join(pieces)
    if pieces:
        text += "\n"
    if sink is None:
        return text
    sink.write(text)
    return None


def to_matrix(raw, n_features=None):
    """CSR feature matrix and raw label vector of a parsed dataset.

    `n_features` widens (never narrows) the column count, so train and
    test matrices can be aligned to a common dimension.  The matrix
    shares `raw.features`' arrays, unless a width beyond int32 needs
    int64 index copies.
    """
    dimension = _declared(n_features)
    if dimension is None:
        dimension = raw.n_features
    if dimension < raw.n_features:
        raise DomainError(
            "requested dimension %d is below the dataset's %d" % (dimension, raw.n_features)
        )
    X = raw.features
    features = sp.csr_matrix((X.data, X.indices, X.indptr), shape=(raw.n_samples, dimension))
    return features, np.asarray(raw.labels, dtype=float)


def binarize(raw, positive_class=None, n_features=None):
    """TrainingSet with y = +1 on `positive_class` samples, -1 elsewhere.

    With `positive_class` omitted the dataset must have exactly two
    distinct labels and the larger one becomes +1.

    Raises
    ------
    UnknownClassError
        If the requested class never occurs.
    DegenerateDatasetError
        If `positive_class` is omitted and the label count is not two.
    """
    classes = raw.class_labels()
    if positive_class is None:
        if len(classes) != 2:
            raise DegenerateDatasetError(
                "dataset has %d distinct labels; pass positive_class to binarize"
                % len(classes)
            )
        positive_class = classes[1]
    elif float(positive_class) not in classes:
        raise UnknownClassError("class %r does not occur in the dataset" % (positive_class,))
    features, labels = to_matrix(raw, n_features=n_features)
    y = np.where(labels == float(positive_class), 1.0, -1.0)
    return TrainingSet(features=features, labels=y)


def one_vs_all_tasks(raw, n_features=None):
    """One binarized TrainingSet per class, ordered by increasing label.

    Returns a list of ``(class_label, TrainingSet)``.  All tasks share
    one feature matrix; only the label vectors differ.
    """
    classes = raw.class_labels()
    if len(classes) < 2:
        raise DegenerateDatasetError(
            "one-vs-all needs at least 2 classes, found %d" % len(classes)
        )
    features, labels = to_matrix(raw, n_features=n_features)
    tasks = []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        tasks.append((cls, TrainingSet(features=features, labels=y)))
    return tasks


def predict_one_vs_all(weights_by_class, features):
    """Argmax of the per-class scores x^T w_k; ties go to the smallest label.

    Parameters
    ----------
    weights_by_class : sequence of (class_label, weight vector)
        Order does not matter; scoring sorts by label so np.argmax's
        first-hit rule implements the tie-break.
    features : sparse or dense matrix, shape (m, N)

    Returns
    -------
    ndarray of shape (m,) holding the winning class labels.
    """
    if not weights_by_class:
        raise DomainError("need at least one per-class weight vector")
    ordered = sorted(weights_by_class, key=lambda item: item[0])
    stacked = np.column_stack([np.asarray(w, dtype=float) for _, w in ordered])
    scores = sp.csr_matrix(features, dtype=float) @ stacked
    winners = np.argmax(scores, axis=1)
    class_values = np.asarray([cls for cls, _ in ordered], dtype=float)
    return class_values[np.asarray(winners).ravel()]
