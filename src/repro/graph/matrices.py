"""Per-label boolean adjacency matrices.

Label-path evaluation reduces to boolean sparse matrix products: the pairs
connected by the path ``l1/l2/.../lk`` are exactly the non-zeros of
``M(l1) · M(l2) · ... · M(lk)`` where ``M(l)`` is the boolean adjacency matrix
of label ``l``.  :class:`LabelMatrixStore` materialises and caches those
per-label matrices (scipy CSR, boolean) for a fixed graph so the evaluator
and the catalog builder can share them.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy import sparse

from repro.exceptions import UnknownLabelError
from repro.graph.digraph import LabeledDiGraph

__all__ = ["LabelMatrixStore", "block_nonzero_counts"]


def block_nonzero_counts(
    matrix: sparse.csr_matrix, block_ptr: np.ndarray
) -> np.ndarray:
    """Per-block stored-entry counts of a vertically stacked CSR matrix.

    ``block_ptr`` delimits the stacked blocks as row offsets
    (``block_ptr[b]:block_ptr[b + 1]`` is block ``b``); the count of block
    ``b`` is then a difference of two ``indptr`` entries, so the whole
    reduction is one fancy-index plus one :func:`numpy.diff` — no per-block
    Python loop.  For boolean products this count *is* the path selectivity
    of the prefix the block represents.
    """
    return np.diff(matrix.indptr[block_ptr]).astype(np.int64)


class LabelMatrixStore:
    """Boolean adjacency matrices of a :class:`LabeledDiGraph`, one per label.

    The store snapshots the graph at construction time: later mutations of the
    graph are not reflected.  Matrices are built lazily on first access and
    cached.

    Parameters
    ----------
    graph:
        The graph to snapshot.
    labels:
        Optional restriction of the label set; defaults to all labels present
        in the graph.
    """

    def __init__(
        self, graph: LabeledDiGraph, labels: Optional[Iterable[str]] = None
    ) -> None:
        self._graph = graph
        self._dimension = graph.vertex_count
        self._labels = tuple(sorted(labels) if labels is not None else graph.labels())
        self._matrices: dict[str, sparse.csr_matrix] = {}
        self._sources: dict[str, np.ndarray] = {}

    @property
    def dimension(self) -> int:
        """The matrix dimension ``|V|``."""
        return self._dimension

    @property
    def labels(self) -> tuple[str, ...]:
        """The labels the store covers (sorted)."""
        return self._labels

    def matrix(self, label: str) -> sparse.csr_matrix:
        """The boolean CSR adjacency matrix of ``label``.

        Row ``i`` / column ``j`` correspond to the graph's dense vertex ids;
        entry ``(i, j)`` is ``True`` iff an edge ``(v_i, label, v_j)`` exists.
        """
        if label not in self._labels:
            raise UnknownLabelError(label)
        cached = self._matrices.get(label)
        if cached is not None:
            return cached
        rows, cols = self._graph.edge_index_arrays(label)
        # Straight to canonical CSR: the (row, col) pairs are unique (edges
        # form a set), so one sort replaces scipy's COO detour, which costs
        # more than the matrix itself for the small labels of sparse graphs.
        order = np.lexsort((cols, rows))
        indptr = np.zeros(self._dimension + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self._dimension), out=indptr[1:])
        matrix = sparse.csr_matrix(
            (np.ones(rows.size, dtype=bool), cols[order], indptr),
            shape=(self._dimension, self._dimension),
        )
        self._matrices[label] = matrix
        return matrix

    def source_ids(self, label: str) -> np.ndarray:
        """Vertex ids with an outgoing ``label`` edge: the nonzero rows of ``M(label)``.

        Read off the matrix when it is already built, otherwise off the
        graph's adjacency without building it — the catalog builder uses
        this to skip products that are provably empty, so a delta patch
        only builds the matrices its affected subtrees actually reach.
        Order is unspecified.
        """
        cached = self._sources.get(label)
        if cached is not None:
            return cached
        matrix = self._matrices.get(label)
        if matrix is not None:
            ids = np.flatnonzero(np.diff(matrix.indptr))
        elif label not in self._labels:
            raise UnknownLabelError(label)
        elif self._graph.has_label(label):
            sources = self._graph.forward_adjacency(label)
            ids = np.fromiter(
                map(self._graph.vertex_id, sources), dtype=np.int64, count=len(sources)
            )
        else:
            ids = np.empty(0, dtype=np.int64)
        self._sources[label] = ids
        return ids

    def as_dict(
        self, labels: Optional[Iterable[str]] = None
    ) -> dict[str, sparse.csr_matrix]:
        """Materialise the matrices for ``labels`` (default: all) as a dict.

        The one-call way to build every requested matrix exactly once.
        """
        selected = self._labels if labels is None else tuple(labels)
        return {label: self.matrix(label) for label in selected}

    def path_matrix(self, labels: Iterable[str]) -> sparse.csr_matrix:
        """Boolean product ``M(l1)·...·M(lk)`` for the label sequence ``labels``.

        The result's non-zeros are exactly the vertex pairs returned by the
        path query.  An empty label sequence yields the identity matrix
        (every vertex is connected to itself by the empty path).
        """
        product: Optional[sparse.csr_matrix] = None
        for label in labels:
            current = self.matrix(label)
            if product is None:
                product = current.copy()
            else:
                product = (product @ current).astype(bool)
        if product is None:
            return sparse.identity(self._dimension, dtype=bool, format="csr")
        return product.astype(bool)

    def path_selectivity(self, labels: Iterable[str]) -> int:
        """Number of distinct vertex pairs connected by the label sequence."""
        return int(self.path_matrix(labels).nnz)

    def extend(
        self, prefix_matrix: sparse.csr_matrix, label: str
    ) -> sparse.csr_matrix:
        """Extend a prefix product by one more label (``prefix · M(label)``)."""
        return (prefix_matrix @ self.matrix(label)).astype(bool)

    def identity(self) -> sparse.csr_matrix:
        """The ``|V|×|V|`` boolean identity matrix (empty-path product)."""
        return sparse.identity(self._dimension, dtype=bool, format="csr")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<LabelMatrixStore dim={self._dimension} labels={len(self._labels)} "
            f"cached={len(self._matrices)}>"
        )
