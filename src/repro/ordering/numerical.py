"""Numerical ordering (Section 3.2).

In numerical ordering each base-label rank is a digit and a label path is the
number those digits spell in a ``|L|``-based numeral system.  Shorter paths
always precede longer ones (rule (1) of the paper); paths of equal length are
compared digit by digit (rule (2)).

With the alphabetical ranking this is the "native" order in which a system
would naturally enumerate label paths (and the order of the paper's
Figure 1); with the cardinality ranking it becomes the ``num-card`` method.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ordering.base import Ordering, PathLike
from repro.paths.index import canonical_digit_matrix, digit_matrix_to_paths
from repro.paths.label_path import LabelPath

__all__ = ["NumericalOrdering"]


class NumericalOrdering(Ordering):
    """Length-first, then digit-wise (base-``|L|``) comparison of rank strings."""

    name = "num"

    def index(self, path: PathLike) -> int:
        """Position of ``path``: length block plus its base-``|L|`` value."""
        label_path = self._validate_path(path)
        base = self._ranking.size
        length = label_path.length
        # Offset of the block containing all paths shorter than ``length``.
        offset = sum(base**i for i in range(1, length))
        # Within the block, the path's digits (rank - 1) form a base-``|L|``
        # number, most significant digit first.
        value = 0
        for label in label_path:
            value = value * base + (self._ranking.rank(label) - 1)
        return offset + value

    def _rank_matrix(self, lengths: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # The left-padded 1-based ranks spell the path's bijective base-|L|
        # numeral, whose value is the length-block offset plus the base-|L|
        # value of the 0-based digits, plus one — the scalar ``index``.
        base = self._ranking.size
        powers = base ** np.arange(self._max_length - 1, -1, -1, dtype=np.int64)
        return ranks @ powers - 1

    def path(self, index: int) -> LabelPath:
        """Invert :meth:`index`: decode the base-``|L|`` digits back to labels."""
        index = self._validate_index(index)
        base = self._ranking.size
        length = 1
        remaining = index
        while remaining >= base**length:
            remaining -= base**length
            length += 1
        # Decode ``remaining`` as a ``length``-digit base-``|L|`` number.
        digits = [0] * length
        for position in range(length - 1, -1, -1):
            digits[position] = remaining % base
            remaining //= base
        labels = [self._ranking.label(digit + 1) for digit in digits]
        return LabelPath(labels)

    def path_array(self, indices: Optional[Sequence[int]] = None) -> list[LabelPath]:
        """Vectorised :meth:`path` over many indices (default: whole domain)."""
        index_array = self._validate_index_array(indices)
        # A numerical ordering index is the canonical domain index over the
        # *rank* order, so one digit-matrix decomposition unranks everything;
        # bijective digit ``d`` is the label with rank ``d``.
        lengths, digits = canonical_digit_matrix(
            self._ranking.size, self._max_length, index_array
        )
        return digit_matrix_to_paths(lengths, digits, self._ranking.labels)
