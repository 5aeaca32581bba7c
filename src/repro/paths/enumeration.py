"""Enumeration of the label-path domain ``Lk`` and its catalog builder.

``Lk`` is the set of all label paths over the alphabet ``L`` with length up to
``k`` (Section 2 of the paper); its size is ``|L| + |L|² + ... + |L|^k``.
This module enumerates ``Lk`` and computes the true selectivity ``f(ℓ)`` of
*every* path in ``Lk`` with one kernel, :func:`_matrix_subtrees_nonzeros`:
boolean matrix-chain products over the per-label adjacency matrices, where
the live prefixes of a trie level are stacked into one CSR matrix so that a
whole batch of prefixes is extended by a label in a single scipy call.

Three entry points share the kernel:

* :func:`compute_selectivity_nonzeros` — the strictly-positive
  selectivities as aligned ``(domain indices, counts)`` ``int64`` arrays in
  canonical numerical-alphabetical order, in O(nnz) memory.  Zero subtrees
  are never materialised, which is what lets alphabet/length scenarios
  whose dense domain would not fit in memory (``|L|=20, k=6`` is 64M
  entries) build at all.
* :func:`update_selectivity_nonzeros` — a delta patch: the kernel reruns on
  the affected first-label subtrees only and every other entry is kept.
* :func:`subtree_level_ranges` — the index ranges such a patch replaces.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import PathError
from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.digraph import LabeledDiGraph
from repro.graph.matrices import LabelMatrixStore, block_nonzero_counts
from repro.obs import tracing
from repro.obs.metrics import BUILD_BUCKETS, Histogram
from repro.paths.index import domain_block_starts
from repro.paths.label_path import LabelPath

_CATALOG_BUILD_SECONDS = Histogram(
    "repro_catalog_build_seconds",
    "Wall-clock seconds spent in a cold catalog core build.",
    buckets=BUILD_BUCKETS,
)

__all__ = [
    "domain_size",
    "enumerate_label_paths",
    "compute_selectivity_nonzeros",
    "update_selectivity_nonzeros",
    "subtree_level_ranges",
]

#: Stored entries the kernel collects for the next trie level before it
#: multiplies them onward and drops them.  This bounds the live frontier to
#: about one budget per level plus a single label's product.  On the
#: snap-er stand-in (k=4) a cold build's peak-RSS rise was +1.1 MiB at
#: 1,024, +2.9 MiB at 16,384, +18 MiB at 262,144 and +59 MiB unbounded;
#: 16,384 ran about 15% faster than 1,024.
_FLUSH_ENTRIES = 16_384

#: A stacked frontier: the CSR matrix, each block's first-label digit and
#: local value (the base-``|L|`` number of its remaining labels), and the
#: block row offsets.
_Frontier = tuple[sparse.csr_matrix, np.ndarray, np.ndarray, np.ndarray]

#: A collected part of the next frontier: a compacted product's column
#: indices and row end offsets (see :func:`_compact`), then each block's
#: digit, local value and row count.
_Part = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def domain_size(label_count: int, max_length: int) -> int:
    """The size ``|Lk| = Σ_{i=1..k} |L|^i`` of the label-path domain."""
    if label_count < 1:
        raise PathError("label_count must be >= 1")
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    if label_count == 1:
        return max_length
    return (label_count ** (max_length + 1) - label_count) // (label_count - 1)


def enumerate_label_paths(
    labels: Sequence[str], max_length: int
) -> Iterator[LabelPath]:
    """Yield every label path of length ``1..max_length`` over ``labels``.

    Paths are yielded in *numerical-alphabetical* order: shorter paths first,
    ties broken by the alphabetical order of ``labels`` position by position.
    This is the paper's native domain order, the baseline the orderings are
    compared against, and the canonical order of the catalog's domain
    indices (path ``i`` of this enumeration has domain index ``i``).
    """
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    ordered_labels = sorted(labels)
    if not ordered_labels:
        raise PathError("the label alphabet must not be empty")
    for length in range(1, max_length + 1):
        for combo in itertools.product(ordered_labels, repeat=length):
            yield LabelPath(combo)


# ----------------------------------------------------------------------
# the matrix-chain kernel
# ----------------------------------------------------------------------
def _subtree_tail_size(base: int, remaining: int) -> int:
    """Number of extension paths below a prefix: ``Σ_{e=1..remaining} |L|^e``."""
    if remaining <= 0:
        return 0
    if base == 1:
        return remaining
    return (base ** (remaining + 1) - base) // (base - 1)


def _stack(parts: Sequence[_Part], columns: int) -> _Frontier:
    """Stack collected parts into one boolean CSR frontier with ``columns`` columns."""
    indices = np.concatenate([part[0] for part in parts])
    indptr = np.zeros(1 + sum(part[1].size for part in parts), dtype=np.int64)
    row, offset = 1, 0
    for part_indices, row_ends, *_ in parts:
        indptr[row:row + row_ends.size] = row_ends + offset
        row += row_ends.size
        offset += part_indices.size
    frontier = sparse.csr_matrix(
        (np.ones(indices.size, dtype=bool), indices, indptr),
        shape=(indptr.size - 1, columns),
    )
    heights = np.concatenate([part[4] for part in parts])
    block_ptr = np.zeros(heights.size + 1, dtype=np.int64)
    np.cumsum(heights, out=block_ptr[1:])
    return (
        frontier,
        np.concatenate([part[2] for part in parts]),
        np.concatenate([part[3] for part in parts]),
        block_ptr,
    )


def _compact(
    matrix: sparse.csr_matrix, block_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``matrix`` without its all-zero rows, as raw arrays, plus block heights.

    Returns ``(indices, row_ends, heights)``.  Dropping empty rows removes no
    stored entry, so ``indices`` is ``matrix.indices`` itself and only the
    row boundaries shrink, to the kept rows' end offsets; no scipy matrix is
    built per part.  ``block_ptr`` delimits the row blocks of ``matrix``,
    and ``heights`` holds each block's kept row count.
    """
    rows = np.flatnonzero(np.diff(matrix.indptr))
    heights = np.diff(np.searchsorted(rows, block_ptr))
    return matrix.indices, matrix.indptr[rows + 1], heights


def _extend_blocks(
    frontier: sparse.csr_matrix,
    block_ptr: np.ndarray,
    matrix: sparse.csr_matrix,
    keep: bool,
) -> tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """One label's extension of a stacked frontier.

    Returns the per-block path counts and, when ``keep`` is set and any
    block survives, the product compacted by :func:`_compact`.  The product
    itself goes out of scope here, so a flush that descends further holds
    only the compacted arrays.
    """
    product = frontier @ matrix
    counts = block_nonzero_counts(product, block_ptr)
    if not keep or not product.indices.size:
        return counts, None
    return counts, _compact(product, block_ptr)


class _Collected:
    """Compacted products gathered for one trie level, flushed by size.

    Once they hold :data:`_FLUSH_ENTRIES` stored entries (or on an
    explicit :meth:`flush`) they are stacked into one frontier, dropped,
    and handed to ``extend``, which multiplies them onward.
    """

    def __init__(self, extend: Callable[[_Frontier], None], columns: int) -> None:
        self._extend = extend
        self._columns = columns
        self._parts: list[_Part] = []
        self._entries = 0

    def add(
        self,
        indices: np.ndarray,
        row_ends: np.ndarray,
        digits: np.ndarray,
        values: np.ndarray,
        heights: np.ndarray,
    ) -> None:
        """Collect one part; multiply the batch onward once it fills the budget."""
        self._parts.append((indices, row_ends, digits, values, heights))
        self._entries += indices.size
        if self._entries >= _FLUSH_ENTRIES:
            self.flush()

    def flush(self) -> None:
        """Stack whatever was collected, drop the parts and multiply onward."""
        if self._parts:
            stacked = _stack(self._parts, self._columns)
            self._parts, self._entries = [], 0
            self._extend(stacked)


def _matrix_subtrees_nonzeros(
    store: LabelMatrixStore,
    alphabet: Sequence[str],
    roots: Sequence[str],
    max_length: int,
    progress: Optional[Callable[[int], None]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero selectivities of the ``roots`` subtrees as sorted domain arrays.

    Returns ``(indices, counts)``: the sorted canonical domain indices of
    every path that starts with a label in ``roots`` and has ``f(ℓ) > 0``,
    and those selectivities.  Extensions range over the full ``alphabet``.

    The path trie is walked in *stacked frontiers*.  A frontier holds the
    boolean reachability matrices of many live prefixes of one length,
    vertically stacked into one CSR matrix (one row block per prefix).
    Extending it by a label is a single ``frontier @ M(label)`` product, and
    the per-prefix path counts fall out of ``indptr`` differences at the
    block boundaries (:func:`~repro.graph.matrices.block_nonzero_counts`).
    Blocks whose product is empty are dropped (their whole subtree is zero),
    and so are all-zero rows (:func:`_compact`) — loss-free, because each
    count is a block total.  A label with no edge leaving a vertex the
    frontier reaches (:meth:`~repro.graph.matrices.LabelMatrixStore.source_ids`)
    cannot extend any block, so its product is skipped; on a delta patch its
    matrix is then never built at all.

    The frontier is bounded: the compacted products that form the next
    level are collected only until they hold :data:`_FLUSH_ENTRIES` stored
    entries, then stacked, multiplied onward depth-first and dropped.  Live
    memory is therefore about one budget of parts per trie level plus a
    single label's product, not a whole level.  Chunks are emitted in no
    canonical order, so each level is sorted once at the end; the result
    does not depend on the budget.

    ``progress`` receives the running count of processed paths (evaluated,
    or skipped below an empty prefix) after every label extension; it ends
    at ``|roots| · Σ_{m<k} |L|^m`` — ``|Lk|`` for a full build.
    """
    base = len(alphabet)
    digit_of = {label: digit for digit, label in enumerate(alphabet)}
    starts = domain_block_starts(base, max_length)
    # tails[m]: paths strictly below one prefix of length m + 1.
    tails = [_subtree_tail_size(base, max_length - 1 - m) for m in range(max_length)]
    found: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(max_length)]
    empty = np.empty(0, dtype=np.int64)
    processed = 0

    def record(
        level: int,
        digits: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        evaluated: int,
    ) -> None:
        """Keep one chunk of nonzero paths of length ``level + 1``.

        ``evaluated`` paths were computed; each one that came out empty also
        settles its whole subtree, which progress counts as processed.
        """
        nonlocal processed
        if counts.size:
            indices = starts[level] + digits * base**level + values
            found[level].append((indices, counts))
        processed += evaluated + (evaluated - counts.size) * tails[level]
        if progress is not None:
            progress(processed)

    def descend(level: int, stacked: _Frontier) -> None:
        """Extend a frontier of length ``level + 1`` prefixes by every label."""
        frontier, digits, values, block_ptr = stacked
        child = level + 1
        collected = (
            _Collected(lambda parts: descend(child, parts), store.dimension)
            if child + 1 < max_length
            else None
        )
        reached = np.zeros(frontier.shape[1], dtype=bool)
        reached[frontier.indices] = True
        for digit, label in enumerate(alphabet):
            if not reached[store.source_ids(label)].any():
                record(child, empty, empty, empty, digits.size)
                continue
            counts, part = _extend_blocks(
                frontier, block_ptr, store.matrix(label), collected is not None
            )
            alive = np.flatnonzero(counts)
            children = values[alive] * base + digit
            record(child, digits[alive], children, counts[alive], digits.size)
            if part is not None:
                indices, row_ends, heights = part
                collected.add(
                    indices, row_ends, digits[alive], children, heights[alive]
                )
        if collected is not None:
            collected.flush()

    # Level 0: the root matrices themselves, one block each.
    collected = (
        _Collected(lambda parts: descend(0, parts), store.dimension)
        if max_length > 1
        else None
    )
    zero = np.zeros(1, dtype=np.int64)
    seed_ptr = np.array([0, store.dimension], dtype=np.int64)
    for root in sorted(roots, key=digit_of.__getitem__):
        matrix = store.matrix(root)
        digit = np.array([digit_of[root]], dtype=np.int64)
        count = np.array([matrix.nnz], dtype=np.int64)
        record(0, digit, zero, count[count > 0], 1)
        if collected is not None and matrix.nnz:
            indices, row_ends, height = _compact(matrix, seed_ptr)
            collected.add(indices, row_ends, digit, zero, height)
    if collected is not None:
        collected.flush()

    index_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    for chunks in found:
        if not chunks:
            continue
        indices = np.concatenate([chunk[0] for chunk in chunks])
        counts = np.concatenate([chunk[1] for chunk in chunks])
        order = np.argsort(indices)
        index_chunks.append(indices[order])
        count_chunks.append(counts[order])
    if not index_chunks:
        return empty, empty.copy()
    return np.concatenate(index_chunks), np.concatenate(count_chunks)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _alphabet_of(
    graph: LabeledDiGraph, max_length: int, labels: Optional[Sequence[str]]
) -> tuple[str, ...]:
    """The sorted build alphabet, validating ``max_length`` and emptiness."""
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    alphabet = tuple(sorted(labels) if labels is not None else graph.labels())
    if not alphabet:
        raise PathError("the graph has no edge labels to enumerate")
    return alphabet


def _cold_nonzeros(
    graph: LabeledDiGraph,
    alphabet: tuple[str, ...],
    max_length: int,
    store: Optional[LabelMatrixStore],
    progress: Optional[Callable[[int], None]],
    span: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the kernel over every root, timed into the build metric and trace."""
    matrix_store = store if store is not None else LabelMatrixStore(graph, labels=alphabet)
    started = time.perf_counter()
    result = _matrix_subtrees_nonzeros(
        matrix_store, alphabet, alphabet, max_length, progress
    )
    elapsed = time.perf_counter() - started
    _CATALOG_BUILD_SECONDS.observe(elapsed)
    trace = tracing.current_trace()
    if trace is not None:
        trace.add_span(span, elapsed, labels=len(alphabet))
    return result


def compute_selectivity_nonzeros(
    graph: LabeledDiGraph,
    max_length: int,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the nonzero part of ``f`` over ``Lk`` as aligned sparse arrays.

    Returns ``(indices, counts)``: sorted ``int64`` canonical domain indices
    of every path with ``f(ℓ) > 0`` and their selectivities (see
    :func:`repro.paths.index.path_to_domain_index`), computed in O(nnz)
    memory.  The full ``|Lk|`` domain is never allocated: zero subtrees
    advance only the progress counter, so scenarios whose dense vector would
    not fit (``|L|=20, k=6`` is 64M entries) build in the space of their
    signal.

    Parameters
    ----------
    labels:
        The alphabet (default: the graph's labels); labels without edges
        root all-zero subtrees.
    store:
        A :class:`~repro.graph.matrices.LabelMatrixStore` to reuse.
    progress:
        Called with the running count of processed paths after every
        label extension of the kernel; the last call reports ``|Lk|``.
    """
    alphabet = _alphabet_of(graph, max_length, labels)
    return _cold_nonzeros(graph, alphabet, max_length, store, progress, "catalog.nonzeros")


def subtree_level_ranges(
    label_count: int, max_length: int, first_digit: int
) -> list[tuple[int, int]]:
    """The half-open canonical index ranges one first-label subtree covers.

    One ``(low, high)`` range per path length: the length-``m + 1`` slice of
    the subtree rooted at the label with digit ``first_digit`` is
    ``[starts[m] + d·|L|^m, starts[m] + (d + 1)·|L|^m)``.  These are the
    exact ranges a delta patch replaces.
    """
    starts = domain_block_starts(label_count, max_length)
    ranges: list[tuple[int, int]] = []
    for level_index in range(max_length):
        width = label_count**level_index
        low = int(starts[level_index]) + first_digit * width
        ranges.append((low, low + width))
    return ranges


def _patch_nonzeros(
    graph: LabeledDiGraph,
    alphabet: tuple[str, ...],
    max_length: int,
    affected: Sequence[str],
    store: Optional[LabelMatrixStore],
    progress: Optional[Callable[[int], None]],
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh nonzeros of the ``affected`` subtrees on the post-delta graph."""
    unknown = sorted(set(affected) - set(alphabet))
    if unknown:
        raise PathError(f"affected labels outside the alphabet: {', '.join(unknown)}")
    matrix_store = store if store is not None else LabelMatrixStore(graph, labels=alphabet)
    return _matrix_subtrees_nonzeros(
        matrix_store, alphabet, affected, max_length, progress
    )


def update_selectivity_nonzeros(
    graph: LabeledDiGraph,
    max_length: int,
    old_indices: np.ndarray,
    old_counts: np.ndarray,
    delta: GraphDelta,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    progress: Optional[Callable[[int], None]] = None,
    affected: Optional[Sequence[str]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Patch sparse ``(indices, counts)`` arrays after ``delta``.

    ``graph`` must be the **post-delta** graph and ``old_indices`` /
    ``old_counts`` the output of :func:`compute_selectivity_nonzeros` for
    the pre-delta graph over the same ``labels`` alphabet and
    ``max_length``.  Only the first-label subtrees that
    :func:`~repro.graph.delta.affected_first_labels` flags are re-evaluated
    (exactly, on the new graph: the kernel simply starts from the affected
    roots); every old entry outside the affected subtrees' index ranges is
    kept as is.  The result equals a cold
    :func:`compute_selectivity_nonzeros` on the post-delta graph.

    The caller is responsible for keeping the domain stable: when the delta
    changes the label *alphabet* (a new label appears, or ``labels`` no
    longer matches the graph), the canonical index space itself moves and
    the right answer is a cold rebuild —
    :meth:`~repro.paths.catalog.SelectivityCatalog.apply_delta` handles that
    fallback.  A delta label outside ``labels`` raises
    :class:`~repro.exceptions.GraphError`.

    Parameters are as in :func:`compute_selectivity_nonzeros`.
    ``progress`` reports processed paths of the recomputed subtrees only.
    ``affected``, when given, is a precomputed :func:`affected_first_labels`
    result for this exact (graph, delta, alphabet) — callers that already
    ran the analysis (the engine does, for its stats) pass it through so it
    is not recomputed; soundness is theirs to guarantee.
    """
    alphabet = _alphabet_of(graph, max_length, labels)
    old_indices = np.ascontiguousarray(old_indices, dtype=np.int64)
    old_counts = np.ascontiguousarray(old_counts, dtype=np.int64)
    if old_indices.shape != old_counts.shape or old_indices.ndim != 1:
        raise PathError(
            "old indices and counts must be aligned one-dimensional arrays"
        )
    if affected is None:
        affected = affected_first_labels(graph, delta, max_length, labels=alphabet)
    if not affected:
        return old_indices.copy(), old_counts.copy()
    fresh_indices, fresh_counts = _patch_nonzeros(
        graph, alphabet, max_length, affected, store, progress
    )

    # Drop every retained entry that falls inside an affected subtree's
    # ranges, then merge the (disjoint) fresh entries back in sorted order.
    digit_of = {label: digit for digit, label in enumerate(alphabet)}
    keep = np.ones(old_indices.size, dtype=bool)
    for label in affected:
        for low, high in subtree_level_ranges(
            len(alphabet), max_length, digit_of[label]
        ):
            first, last = np.searchsorted(old_indices, [low, high])
            keep[first:last] = False
    merged_indices = np.concatenate((old_indices[keep], fresh_indices))
    merged_counts = np.concatenate((old_counts[keep], fresh_counts))
    order = np.argsort(merged_indices, kind="stable")
    return merged_indices[order], merged_counts[order]
