"""Lexicographical ordering (Section 3.2).

Lexicographical ordering is "the ordering rule used in dictionaries": every
path is compared position by position, and a path that is a proper prefix of
another comes immediately before it (followed by the rest of its extensions),
exactly like ``"a" < "aa" < "ab" < "b"`` in a dictionary.

The paper formalises this by padding each path to length ``k`` with blank
symbols; the worked example in Table 2 (``lex-alph``: ``1, 1/1, 1/2, 1/3, 2,
2/1, ...``) places a path *before* its extensions, i.e. the blank symbol
sorts before every real label.  We follow the worked example (the normative
artefact of the paper) and note that the inequality direction in the prose
(``rank(blank) > rank(l)``) is inconsistent with it.

Equivalently, the ordering is a pre-order traversal of the label-path trie in
rank order, which is how both directions of the bijection are computed in
closed form below.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.ordering.base import Ordering, PathLike
from repro.paths.label_path import LabelPath

__all__ = ["LexicographicalOrdering"]


class LexicographicalOrdering(Ordering):
    """Dictionary (trie pre-order) ordering of label paths."""

    name = "lex"

    @lru_cache(maxsize=None)
    def _subtree_size(self, remaining_depth: int) -> int:
        """Number of paths in a trie subtree rooted at depth ``k - remaining_depth``.

        The root of the subtree is itself a path (1), plus ``|L|`` children
        each rooting a subtree one level shallower.
        """
        if remaining_depth <= 0:
            return 1
        return 1 + self._ranking.size * self._subtree_size(remaining_depth - 1)

    def index(self, path: PathLike) -> int:
        """Pre-order trie position of ``path`` (closed form, no table)."""
        label_path = self._validate_path(path)
        k = self._max_length
        index = 0
        for position, label in enumerate(label_path, start=1):
            rank = self._ranking.rank(label)
            # Skip the whole subtrees of the (rank - 1) earlier siblings...
            index += (rank - 1) * self._subtree_size(k - position)
            # ...and, except at the final position, the node itself (pre-order:
            # the prefix path precedes all of its extensions).
            if position < label_path.length:
                index += 1
        return index

    @cached_property
    def _linear_form(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-length ``(offsets, weights)`` of the closed form over padded ranks.

        A path of length ``m`` has its position ``p`` (1-based) in padded
        column ``k - m + p - 1``; ``weights[m]`` puts the sibling-subtree
        size ``S(k - p)`` there, and ``offsets[m]`` folds in the ``-1`` per
        rank and the ``m - 1`` node steps of the pre-order walk.
        """
        k = self._max_length
        weights = np.zeros((k + 1, k), dtype=np.int64)
        offsets = np.zeros(k + 1, dtype=np.int64)
        for length in range(1, k + 1):
            for position in range(1, length + 1):
                weights[length, k - length + position - 1] = self._subtree_size(
                    k - position
                )
            offsets[length] = (length - 1) - weights[length].sum()
        return offsets, weights

    def _rank_matrix(self, lengths: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # Same pre-order walk as ``index``: position p contributes (rank - 1)
        # subtrees of depth k - p, plus the node step (+1) at every
        # non-final position — a per-length linear form in the ranks.
        offsets, weights = self._linear_form
        return offsets[lengths] + np.einsum("ij,ij->i", ranks, weights[lengths])

    def path(self, index: int) -> LabelPath:
        """Invert :meth:`index`: the path at pre-order position ``index``."""
        index = self._validate_index(index)
        k = self._max_length
        labels: list[str] = []
        remaining = index
        depth = 1
        while True:
            subtree = self._subtree_size(k - depth)
            rank = remaining // subtree + 1
            remaining -= (rank - 1) * subtree
            labels.append(self._ranking.label(rank))
            if remaining == 0:
                # The walk stops exactly at this node: the path ends here.
                return LabelPath(labels)
            # Step past the node itself into its children.
            remaining -= 1
            depth += 1

    def path_array(self, indices: Optional[Sequence[int]] = None) -> list[LabelPath]:
        """Vectorised :meth:`path` over many indices (default: whole domain)."""
        index_array = self._validate_index_array(indices)
        k = self._max_length
        count = index_array.size
        if count == 0:
            return []
        # The same pre-order walk as ``path``, run over all rows at once: at
        # each depth the still-active rows peel one rank off, rows that hit
        # remaining == 0 terminate there.  O(k) vectorised passes.
        remaining = index_array.copy()
        ranks = np.zeros((count, k), dtype=np.int64)
        lengths = np.zeros(count, dtype=np.int64)
        active = np.arange(count, dtype=np.int64)
        for depth in range(1, k + 1):
            subtree = self._subtree_size(k - depth)
            chunk = remaining[active]
            rank = chunk // subtree + 1
            chunk -= (rank - 1) * subtree
            ranks[active, depth - 1] = rank
            done = chunk == 0
            lengths[active[done]] = depth
            remaining[active] = chunk
            active = active[~done]
            remaining[active] -= 1
        label_array = np.asarray(self._ranking.labels, dtype=object)
        rows = label_array[np.maximum(ranks - 1, 0)]
        return [
            LabelPath._from_validated(tuple(row[:length]))
            for row, length in zip(rows, lengths.tolist())
        ]
