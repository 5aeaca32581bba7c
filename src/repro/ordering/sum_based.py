"""Sum-based ordering (Section 3.3 — the paper's main contribution).

The idea: the cardinality of a label path correlates with the cardinalities
of its constituent labels, so the *sum of the base-label ranks* (under the
cardinality ranking) is a cheap proxy for the path's own cardinality.
Ordering the domain by that proxy places similar-cardinality paths next to
each other, which is precisely what a histogram wants.

Mapping a path to an index is a three-stage partitioning of the domain:

1. **Length** — shorter paths first; the stage-one partition of length ``m``
   has ``|L|^m`` members.
2. **Summed rank** — within a length, paths are grouped by the sum of their
   label ranks, ascending.  The group sizes are ``dist(s, m, |L|)``
   (:func:`~repro.ordering.combinatorics.compositions_count`, Equation 3).
3. **Combination / permutation** — within a (length, sum) group, paths are
   grouped by the multiset of their ranks, enumerated in the order of
   ``ip(v, m, b)`` (:func:`~repro.ordering.combinatorics.bounded_partitions`,
   Equation 4), each group holding ``nop(C)`` paths (Equation 5); inside one
   combination the concrete rank sequences follow the Algorithm 1 order.

Both directions are implemented: :meth:`SumBasedOrdering.path` is the paper's
Algorithm 2 (unranking), :meth:`SumBasedOrdering.index` its inverse.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import OrderingError
from repro.ordering.base import Ordering, PathLike
from repro.ordering.combinatorics import (
    bounded_partitions,
    compositions_count,
    permutation_count,
    rank_permutation,
    unrank_permutation,
)
from repro.paths.index import domain_block_starts
from repro.paths.label_path import LabelPath

__all__ = ["SumBasedOrdering"]


class SumBasedOrdering(Ordering):
    """Order label paths by (length, summed rank, combination, permutation).

    The stage-one/two/three offsets depend only on ``(|L|, k)``, so they are
    memoised lazily per (length) and per (length, summed rank); after warm-up
    a scalar ranking call reduces to three dictionary lookups plus the
    multiset permutation rank, which keeps the estimation overhead close to
    the ~20 % the paper reports for its Java implementation.  Batches go
    through :func:`multiset_offset_table` instead: one ``searchsorted``
    covers the first three stages for every path of every length.
    """

    name = "sum"

    @property
    def full_name(self) -> str:
        """The paper refers to this method simply as ``sum-based``."""
        return "sum-based"

    # ------------------------------------------------------------------
    # memoised offset tables
    # ------------------------------------------------------------------
    def _length_offset(self, length: int) -> int:
        """Start index of the stage-one block of paths with ``length`` labels."""
        cache = getattr(self, "_length_offsets", None)
        if cache is None:
            cache = {}
            self._length_offsets = cache
        offset = cache.get(length)
        if offset is None:
            base = self._ranking.size
            offset = sum(base**m for m in range(1, length))
            cache[length] = offset
        return offset

    def _sum_offset(self, length: int, summed: int) -> int:
        """Offset of the stage-two group (``summed``) within its length block."""
        cache = getattr(self, "_sum_offsets", None)
        if cache is None:
            cache = {}
            self._sum_offsets = cache
        key = (length, summed)
        offset = cache.get(key)
        if offset is None:
            base = self._ranking.size
            offset = sum(
                compositions_count(smaller, length, base)
                for smaller in range(length, summed)
            )
            cache[key] = offset
        return offset

    def _combination_offsets(self, length: int, summed: int) -> dict[tuple[int, ...], int]:
        """Offset of every stage-three combination within its (length, sum) group."""
        cache = getattr(self, "_combo_offsets", None)
        if cache is None:
            cache = {}
            self._combo_offsets = cache
        key = (length, summed)
        offsets = cache.get(key)
        if offsets is None:
            base = self._ranking.size
            offsets = {}
            running = 0
            for candidate in bounded_partitions(summed, length, base):
                offsets[tuple(candidate)] = running
                running += permutation_count(candidate)
            cache[key] = offsets
        return offsets

    # ------------------------------------------------------------------
    # ranking: path -> index
    # ------------------------------------------------------------------
    def index(self, path: PathLike) -> int:
        """Rank ``path`` by (length, rank sum, combination, permutation)."""
        label_path = self._validate_path(path)
        ranks = self._ranking.ranks(label_path.labels)
        length = len(ranks)
        summed = sum(ranks)
        combination = tuple(sorted(ranks))
        try:
            combination_offset = self._combination_offsets(length, summed)[combination]
        except KeyError:  # pragma: no cover - defensive; cannot happen for valid ranks
            raise OrderingError(
                f"combination {combination} not produced by "
                f"ip({summed}, {length}, {self._ranking.size})"
            ) from None
        return (
            self._length_offset(length)
            + self._sum_offset(length, summed)
            + combination_offset
            + rank_permutation(ranks)
        )

    def _rank_matrix(self, lengths: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # Stages one to three are one table lookup per row, keyed by the
        # row's rank multiset (zero pads sort first and add nothing to the
        # code); stage four is the Algorithm 1 permutation rank.
        base = self._ranking.size
        codes, offsets = multiset_offset_table(base, int(lengths.max()))
        places = (base + 1) ** np.arange(ranks.shape[1] - 1, -1, -1, dtype=np.int64)
        keys = np.sort(ranks, axis=1) @ places
        return offsets[np.searchsorted(codes, keys)] + _algorithm1_ranks(ranks)

    # ------------------------------------------------------------------
    # unranking: index -> path (the paper's Algorithm 2)
    # ------------------------------------------------------------------
    def path(self, index: int) -> LabelPath:
        """Unrank ``index`` back to its path (the paper's Algorithm 2)."""
        index = self._validate_index(index)
        base = self._ranking.size
        remaining = index
        for length in range(1, self._max_length + 1):
            block = base**length
            if remaining >= block:
                remaining -= block
                continue
            for summed in range(length, length * base + 1):
                group = compositions_count(summed, length, base)
                if remaining >= group:
                    remaining -= group
                    continue
                for combination in bounded_partitions(summed, length, base):
                    members = permutation_count(combination)
                    if remaining >= members:
                        remaining -= members
                        continue
                    ranks = unrank_permutation(remaining, combination)
                    assert ranks is not None
                    labels = [self._ranking.label(rank) for rank in ranks]
                    return LabelPath(labels)
                raise OrderingError(  # pragma: no cover - defensive
                    f"index walk exhausted combinations at length={length}, sum={summed}"
                )
            raise OrderingError(  # pragma: no cover - defensive
                f"index walk exhausted sums at length={length}"
            )
        raise OrderingError(  # pragma: no cover - defensive
            f"index walk exhausted lengths for index={index}"
        )

    def path_array(self, indices: Optional[Sequence[int]] = None) -> list[LabelPath]:
        """Vectorised :meth:`path` over many indices (default: whole domain)."""
        index_array = self._validate_index_array(indices)
        count = index_array.size
        if count == 0:
            return []
        base = self._ranking.size
        label_of = self._ranking.labels
        out: list[Optional[LabelPath]] = [None] * count
        # Stages one and two of Algorithm 2 vectorised: the length block is a
        # searchsorted over the canonical block starts, the summed-rank group
        # a searchsorted over the memoised cumulative group sizes.  Only the
        # final multiset-permutation unranking runs per path.
        starts = domain_block_starts(base, self._max_length)
        lengths = np.searchsorted(starts, index_array, side="right")
        for length in np.unique(lengths):
            length = int(length)
            members = np.nonzero(lengths == length)[0]
            remaining = index_array[members] - starts[length - 1]
            sum_offsets = np.array(
                [
                    self._sum_offset(length, candidate)
                    for candidate in range(length, length * base + 1)
                ],
                dtype=np.int64,
            )
            group = np.searchsorted(sum_offsets, remaining, side="right") - 1
            remaining = remaining - sum_offsets[group]
            summed_values = group + length
            for summed in np.unique(summed_values):
                summed = int(summed)
                in_group = summed_values == summed
                rows = members[in_group]
                rests = remaining[in_group]
                offsets_of = self._combination_offsets(length, summed)
                combinations = list(offsets_of.keys())
                offsets = np.fromiter(
                    offsets_of.values(), dtype=np.int64, count=len(combinations)
                )
                chosen = np.searchsorted(offsets, rests, side="right") - 1
                rests = rests - offsets[chosen]
                for row, combo_index, rest in zip(
                    rows.tolist(), chosen.tolist(), rests.tolist()
                ):
                    ranks = unrank_permutation(rest, combinations[combo_index])
                    assert ranks is not None
                    out[row] = LabelPath._from_validated(
                        tuple(label_of[rank - 1] for rank in ranks)
                    )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def summed_rank(self, path: PathLike) -> int:
        """The summed rank ``sr(ℓ)`` of a path (the paper's Table 1 values)."""
        label_path = self._validate_path(path)
        return sum(self._ranking.ranks(label_path.labels))


def _sorted_multisets(label_count: int, length: int) -> np.ndarray:
    """Every multiset of ``length`` ranks from ``[1, |L|]``, one ascending row each.

    Rows come out in lexicographic order: each row of the previous width is
    extended by every rank from its last rank up to ``|L|``.  There are
    ``C(|L| + length - 1, length)`` of them.
    """
    rows = np.arange(1, label_count + 1, dtype=np.int64)[:, None]
    for _ in range(1, length):
        last = rows[:, -1]
        fan = label_count - last + 1
        parent = np.repeat(np.arange(rows.shape[0]), fan)
        step = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        rows = np.column_stack((rows[parent], last[parent] + step))
    return rows


def _multiset_offsets(label_count: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes and first-permutation indices of every multiset of one length.

    Within one (length, sum) group, the ``ip(v, m, b)`` order of Equation 4
    (fewest copies of the largest part first, recursively) is ascending
    lexicographic order of the *descending* rank tuples: where two
    multisets' descending tuples first differ, the larger one holds one
    more copy of that value and as many of every larger value.  So the
    offsets are one lexsort by (sum, descending tuple) and one exclusive
    cumsum of ``nop`` (Equation 5); no partition is enumerated.
    """
    rows = _sorted_multisets(label_count, length)
    places = (label_count + 1) ** np.arange(length - 1, -1, -1, dtype=np.int64)
    # nop(C) = m! / Π multiplicity!, the product of the running run lengths.
    run = np.ones(rows.shape[0], dtype=np.int64)
    denominator = np.ones(rows.shape[0], dtype=np.int64)
    for column in range(1, length):
        run = np.where(rows[:, column] == rows[:, column - 1], run + 1, 1)
        denominator *= run
    members = factorial(length) // denominator
    # lexsort's last key is the primary one: the sum, then the largest rank.
    order = np.lexsort((*rows.T, rows.sum(axis=1)))
    offsets = np.empty_like(members)
    offsets[order] = np.cumsum(members[order]) - members[order]
    offsets += sum(label_count**shorter for shorter in range(1, length))
    return rows @ places, offsets


@lru_cache(maxsize=None)
def multiset_offset_table(
    label_count: int, max_length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted multiset codes of lengths ``1..max_length`` and their offsets.

    Row ``i`` describes one multiset of ``m <= max_length`` ranks from
    ``[1, |L|]``: ``codes[i]`` is the base-``(|L|+1)`` number its ascending
    ranks spell, and ``offsets[i]`` the sum-based index of its first
    permutation — the stage-one length offset plus the stage-two
    summed-rank offset plus the stage-three combination offset.  Codes of
    length ``m`` lie in ``[(|L|+1)^(m-1), (|L|+1)^m)``, so the lengths
    concatenate into one sorted array and a batch of mixed lengths is
    resolved with one ``searchsorted``.

    The table depends on ``(|L|, m)`` only — not on the ranking, the graph
    or ``k`` — so it is built once per process, lazily one length at a time
    (``Σ_m C(|L|+m-1, m)`` rows: 10,625 for ``|L| = 20, k = 4``), and the
    arrays are read-only because every ordering shares them.
    """
    codes, offsets = _multiset_offsets(label_count, max_length)
    if max_length > 1:
        shorter_codes, shorter_offsets = multiset_offset_table(
            label_count, max_length - 1
        )
        codes = np.concatenate((shorter_codes, codes))
        offsets = np.concatenate((shorter_offsets, offsets))
    codes.setflags(write=False)
    offsets.setflags(write=False)
    return codes, offsets


def _algorithm1_ranks(ranks: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.ordering.combinatorics.rank_permutation`.

    Algorithm 1 orders a multiset's permutations lexicographically, so a
    row's rank is ``Σ_j nop(R_j) · less_j / |R_j|`` over its suffix
    multisets ``R_j``: fixing position ``j`` skips, for every smaller value
    ``d`` in ``R_j``, the ``nop(R_j) · count(d) / |R_j|`` permutations that
    start with ``d`` (each term an exact integer).  ``less_j`` counts the
    later values below ``x_j``, and ``nop(R_j)`` follows backwards from
    ``nop(R_{j+1})`` by the recurrence ``nop(R_j) = nop(R_{j+1}) · |R_j| /
    same_j``, where ``same_j`` is the multiplicity of ``x_j`` in ``R_j``.
    Zero pads precede every real rank and exceed none, so their terms vanish
    and each real position sees exactly its own suffix: one pass serves
    every length.
    """
    width = ranks.shape[1]
    columns = ranks.T
    out = np.zeros(ranks.shape[0], dtype=np.int64)
    members = np.ones(ranks.shape[0], dtype=np.int64)
    for position in range(width - 2, -1, -1):
        current = columns[position]
        less = np.zeros_like(out)
        same = np.ones_like(out)
        for later in columns[position + 1 :]:
            less += later < current
            same += later == current
        size = width - position
        members = members * size // same
        out += members * less // size
    return out
