"""Domain indexing: the canonical bijection between label paths and integers.

Label paths map onto the integer interval ``[0, |Lk|)`` in
numerical-alphabetical order (shorter paths first, ties broken position by
position over the sorted alphabet).  A path is a base-``|L|`` number whose
digits are label ranks, offset by the sizes of the shorter-length blocks.
The columnar :class:`~repro.paths.catalog.SelectivityCatalog` stores its
frequency vector in exactly this order, so these functions are the only
translation layer between :class:`LabelPath` objects and array positions.
Scalar and vectorised forms are provided; the vectorised forms treat every
length in one pass, through the path's bijective base-``|L|`` numeral
(label digits ``1..|L|``, no zero digit), whose value minus one is the
canonical index.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, Union

import numpy as np

from repro.exceptions import PathError, UnknownLabelError
from repro.paths.label_path import SEPARATOR, LabelPath, as_label_path

__all__ = [
    "domain_block_starts",
    "path_to_domain_index",
    "domain_index_to_path",
    "paths_to_domain_indices",
    "domain_indices_to_paths",
    "canonical_digit_matrix",
    "digit_matrix_to_paths",
]

PathLike = Union[str, LabelPath]
Pair = tuple[object, object]


# ----------------------------------------------------------------------
# domain arithmetic (canonical numerical-alphabetical order)
# ----------------------------------------------------------------------
def domain_block_starts(label_count: int, max_length: int) -> np.ndarray:
    """Start index of every path-length block of the canonical domain order.

    Returns an ``int64`` array ``starts`` of ``max_length + 1`` entries where
    ``starts[m]`` is the domain index of the first path of length ``m + 1``
    (so ``starts[0] == 0``) and ``starts[max_length]`` equals ``|Lk|``.
    """
    if label_count < 1:
        raise PathError("label_count must be >= 1")
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    sizes = label_count ** np.arange(1, max_length + 1, dtype=np.int64)
    return np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes)))


def _digits_of(alphabet: Sequence[str]) -> tuple[dict[str, int], int]:
    """Label -> bijective digit (position in the sorted alphabet, plus one).

    Returns the map and ``|L|``.  Only labels a :class:`LabelPath` accepts
    get a digit, so a lookup hit doubles as label validation on the
    parser's fast pass.
    """
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    digit_of = {
        label: digit
        for digit, label in enumerate(ordered, start=1)
        if isinstance(label, str) and label and SEPARATOR not in label
    }
    return digit_of, len(ordered)


def _checked_domain_index(
    path: PathLike, digit_of: dict[str, int], base: int, max_length: Optional[int]
) -> int:
    """Domain index of one path through the checked ``LabelPath`` parse.

    Raises what the path deserves: ``InvalidLabelPathError`` for malformed
    input, :class:`PathError` for a path over ``max_length``, then
    :class:`UnknownLabelError` for a label outside the alphabet.
    """
    label_path = as_label_path(path)
    if max_length is not None and label_path.length > max_length:
        raise PathError(f"path {label_path} longer than max_length={max_length}")
    value = 0
    for label in label_path:
        digit = digit_of.get(label)
        if digit is None:
            raise UnknownLabelError(label)
        value = value * base + digit
    return value - 1


def path_to_domain_index(path: PathLike, alphabet: Sequence[str]) -> int:
    """Domain index of ``path`` in the canonical numerical-alphabetical order.

    The index is ``starts[len - 1] + Σ digit_j · |L|^(len - 1 - j)`` where
    the digits are the positions of the path's labels in the sorted alphabet;
    equivalently, the path's bijective base-``|L|`` numeral (digits plus one)
    minus one.  Raises :class:`UnknownLabelError` for labels outside the
    alphabet.
    """
    digit_of, base = _digits_of(alphabet)
    return _checked_domain_index(path, digit_of, base, None)


def domain_index_to_path(index: int, alphabet: Sequence[str]) -> LabelPath:
    """The label path at canonical domain ``index`` (inverse of ranking)."""
    if index < 0:
        raise PathError(f"domain index must be >= 0, got {index}")
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    base = len(ordered)
    length = 1
    remaining = int(index)
    while remaining >= base**length:
        remaining -= base**length
        length += 1
    digits = [0] * length
    for position in range(length - 1, -1, -1):
        digits[position] = remaining % base
        remaining //= base
    return LabelPath(ordered[digit] for digit in digits)


def paths_to_domain_indices(
    paths: Sequence[PathLike],
    alphabet: Sequence[str],
    *,
    max_length: Optional[int] = None,
) -> np.ndarray:
    """Canonical domain indices of a batch of paths, in one pass.

    No :class:`LabelPath` is built: a string is stripped and split on the
    separator, a ``LabelPath`` or label sequence is read as it is, and
    Horner's rule over the labels' bijective digits gives the path's
    bijective base-``|L|`` numeral, whose value minus one *is* the canonical
    index (the length-block offsets fall out of the numeral), so paths of
    every length share one loop.  Any input this pass cannot read — an
    unknown or empty label, a path longer than ``max_length``, a
    non-string — goes through the checked parse instead, which raises
    exactly the error a ``LabelPath`` parse raises
    (``InvalidLabelPathError``; :class:`PathError` for over-length paths,
    which is how the catalog refuses out-of-domain queries;
    :class:`UnknownLabelError`).
    """
    digit_of, base = _digits_of(alphabet)
    # A numeral of more than max_length labels exceeds |Lk|, the largest
    # numeral of max_length labels (an empty one is 0).
    bound = (
        sys.maxsize
        if max_length is None
        else sum(base**length for length in range(1, max_length + 1))
    )
    out = []
    append = out.append
    for path in paths:
        try:
            if isinstance(path, str):
                labels = path.strip().split(SEPARATOR)
            elif isinstance(path, LabelPath):
                labels = path.labels
            elif isinstance(path, (list, tuple)):
                labels = path
            else:
                labels = ()
            value = 0
            for label in labels:
                value = value * base + digit_of[label]
            if 0 < value <= bound:
                append(value - 1)
                continue
        except (KeyError, TypeError):
            pass
        append(_checked_domain_index(path, digit_of, base, max_length))
    return np.array(out, dtype=np.int64)


def canonical_digit_matrix(
    label_count: int, max_length: int, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decompose canonical domain indices into one left-padded digit matrix.

    Returns ``(lengths, digits)``: ``lengths[i]`` is the length of the path
    at ``indices[i]``, and row ``i`` of the ``(n, max_length)`` ``int64``
    matrix ``digits`` holds that path's bijective base-``|L|`` digits
    (position in the sorted alphabet plus one), most significant first and
    right-aligned, behind ``max_length - lengths[i]`` leading ``0`` pads.
    Every length is decomposed in the same pass; this is the substrate of
    the orderings' ranking kernel and of the vectorised unranking helpers.
    Indices outside ``[0, |Lk|)`` raise :class:`PathError`.
    """
    starts = domain_block_starts(label_count, max_length)
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size and (index_array.min() < 0 or index_array.max() >= starts[-1]):
        raise PathError(
            f"domain index out of range [0, {int(starts[-1])}) for "
            f"|L|={label_count}, k={max_length}"
        )
    lengths = np.searchsorted(starts, index_array, side="right")
    remaining = index_array - starts[lengths - 1]
    digits = np.empty((index_array.size, max_length), dtype=np.int64)
    for column in range(max_length - 1, -1, -1):
        remaining, digits[:, column] = np.divmod(remaining, label_count)
    # A path's digits are below |L|^length, so its pad columns hold 0 and
    # only the real columns shift to 1..|L|.
    digits += np.arange(max_length) >= (max_length - lengths)[:, None]
    return lengths, digits


def digit_matrix_to_paths(
    lengths: np.ndarray, digits: np.ndarray, labels: Sequence[str]
) -> list[LabelPath]:
    """The paths a digit matrix spells; digit ``d`` stands for ``labels[d - 1]``.

    The labels come from a validated alphabet, so the paths are assembled
    through the unchecked ``LabelPath`` fast path.
    """
    width = digits.shape[1]
    rows = np.asarray(("",) + tuple(labels), dtype=object)[digits].tolist()
    return [
        LabelPath._from_validated(tuple(row[width - length :]))
        for row, length in zip(rows, lengths.tolist())
    ]


def domain_indices_to_paths(
    indices: Sequence[int], alphabet: Sequence[str], max_length: int
) -> list[LabelPath]:
    """Label paths at a batch of canonical domain indices (vectorised unrank).

    The digits of every index are peeled off at once by
    :func:`canonical_digit_matrix`.  Indices outside ``[0, |Lk|)`` raise
    :class:`PathError`.
    """
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size == 0:
        return []
    lengths, digits = canonical_digit_matrix(len(ordered), max_length, index_array)
    return digit_matrix_to_paths(lengths, digits, ordered)
