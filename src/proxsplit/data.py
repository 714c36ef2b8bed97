"""Sparse text dataset IO and one-vs-all task generation.

Reads the plain-text sparse format used by the LIBSVM dataset collection:
one sample per line, a numeric label followed by whitespace-separated
``index:value`` pairs with strictly increasing 1-based indices.  Blank
lines and lines starting with ``#`` are skipped.  Gzip-compressed files
are handled transparently by their ``.gz`` extension.

A parsed dataset is its labels plus one CSR matrix, built once from flat
typed buffers of 0-based column indices, values and row ends, so no
per-entry Python object outlives its line.  The solvers train on it.
"""

import gzip
import math
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateDatasetError, DomainError, ParseError, UnknownClassError
from .model import TrainingSet

# the widest dimension, and so the largest feature index, that scipy's
# int64 index arrays can hold
INDEX_MAX = int(np.iinfo(np.int64).max)

__all__ = [
    "RawDataset",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "to_matrix",
    "binarize",
    "one_vs_all_tasks",
    "predict_one_vs_all",
]


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

    Parameters
    ----------
    source : str or iterable of str
        Full text, or an iterable of lines (an open file works).
    n_features : int, optional
        Declared dimension.  Indices beyond it are an error; without it
        the dimension is the largest index seen.

    Raises
    ------
    DomainError
        If the declared dimension is negative or beyond the int64 range.
    ParseError
        On a malformed token, a non-finite number, a non-increasing
        feature index, or an index exceeding the declared dimension or
        the int64 range.  The message carries the 1-based line number.
    """
    if n_features is not None and not 0 <= n_features <= INDEX_MAX:
        raise DomainError("declared n_features must be in [0, %d]" % INDEX_MAX)
    limit = INDEX_MAX if n_features is None else n_features
    lines = source.splitlines() if isinstance(source, str) else source
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
    dimension = int(np.max(indices, initial=-1)) + 1 if n_features is None else n_features
    # scipy wraps the typed buffers without a copy (then downcasts the
    # index arrays to int32 when they fit).
    features = sp.csr_matrix((values, indices, indptr), shape=(len(labels), dimension))
    return RawDataset(labels=tuple(labels), features=features)


def load_libsvm(path, n_features=None):
    """parse_libsvm on a file; `.gz` paths are decompressed on the fly."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        return parse_libsvm(handle, n_features=n_features)


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
    dimension = raw.n_features if n_features is None else n_features
    if dimension < raw.n_features:
        raise DomainError(
            "requested dimension %d is below the dataset's %d" % (dimension, raw.n_features)
        )
    if dimension > INDEX_MAX:
        raise DomainError("requested dimension %d exceeds %d" % (dimension, INDEX_MAX))
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
