"""The path-selectivity catalog.

A :class:`SelectivityCatalog` stores the true selectivity ``f(ℓ)`` of every
label path in ``Lk`` for one graph.  It is the ground-truth distribution that

* orderings consult for cardinality ranking,
* histograms are built from, and
* the evaluation harness compares estimates against.

Internally the catalog supports two **storage modes** over the same logical
content (every path of ``Lk`` has a selectivity; most are zero on real
graphs):

* ``dense`` — one index-aligned ``int64`` NumPy frequency vector in the
  canonical numerical-alphabetical domain order (position ``i`` holds ``f``
  of the ``i``-th path of
  :func:`~repro.paths.enumeration.enumerate_label_paths`; the bijection is
  the base-``|L|`` arithmetic of :mod:`repro.paths.index`).  O(|Lk|) memory.
* ``sparse`` — a CSR-style pair of sorted ``int64`` nonzero domain indices
  and aligned counts.  O(nnz) memory; point lookups are one
  ``searchsorted``.  This is what lets large-alphabet/length scenarios
  (``|L|=20, k=6`` has a 64M-entry dense domain) build and serve at all.

``storage="auto"`` (the default of :meth:`SelectivityCatalog.from_graph`)
picks sparse when the domain is large and mostly zero
(:data:`SPARSE_AUTO_MIN_DOMAIN` / :data:`SPARSE_DENSITY_CEILING`), dense
otherwise.  Both modes answer every query identically — storage is an
implementation detail the rest of the library never has to branch on, except
where it *wants* the nonzero stream (the histogram builders, the artifact
cache's memory accounting).

Catalogs are expensive to build for large ``k`` (they require evaluating the
whole domain), so they can be persisted and are treated as immutable once
built.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import PathError, UnknownLabelError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    compute_selectivity_vector,
    domain_size,
    enumerate_label_paths,
    update_selectivity_nonzeros,
    update_selectivity_vector,
)
from repro.paths.index import (
    domain_indices_to_paths,
    paths_to_domain_indices,
)
from repro.paths.label_path import LabelPath, as_label_path

__all__ = [
    "SelectivityCatalog",
    "CATALOG_NPZ_VERSION",
    "CATALOG_STORAGE_MODES",
    "SPARSE_DENSITY_CEILING",
    "SPARSE_AUTO_MIN_DOMAIN",
]

PathLike = Union[str, LabelPath]

#: Version stamp written into the ``.npz`` catalog format.  Version 2 added
#: the sparse (``nz_indices`` / ``nz_values``) layout; version-1 archives
#: (always dense) are still read.
CATALOG_NPZ_VERSION = 2

#: The storage modes a catalog can be asked for.
CATALOG_STORAGE_MODES = ("auto", "dense", "sparse")

#: ``storage="auto"`` picks sparse at or below this nonzero density ...
SPARSE_DENSITY_CEILING = 0.25

#: ... but only for domains at least this large (below it a dense vector is
#: a few KB and the searchsorted indirection buys nothing).
SPARSE_AUTO_MIN_DOMAIN = 4096


def _resolve_auto_storage(domain: int, nnz: int) -> str:
    """The storage mode ``"auto"`` resolves to for a known nonzero count."""
    if domain >= SPARSE_AUTO_MIN_DOMAIN and nnz <= domain * SPARSE_DENSITY_CEILING:
        return "sparse"
    return "dense"


class SelectivityCatalog:
    """True selectivities of every label path up to length ``k`` on one graph.

    Parameters
    ----------
    labels:
        The label alphabet ``L`` (sorted internally).
    max_length:
        The maximum path length ``k``.
    selectivities:
        One of three forms:

        * a mapping from paths in ``Lk`` (or a subset — missing paths are
          treated as selectivity 0) to their true selectivity;
        * a dense ``int64`` frequency vector of ``|Lk|`` entries in canonical
          domain order (*adopted*: the catalog takes ownership and marks it
          read-only — use :meth:`from_frequencies`, which copies by default,
          when the caller keeps using the array);
        * an ``(indices, values)`` pair of aligned 1-D arrays — sorted
          canonical domain indices of the nonzero paths and their counts, as
          :func:`~repro.paths.enumeration.compute_selectivity_nonzeros`
          emits them.
    graph_name:
        Optional provenance string.
    storage:
        ``"dense"``, ``"sparse"`` or ``"auto"``.  ``"auto"`` resolves by the
        density heuristic for array and ``(indices, values)`` input; mapping
        input always resolves dense (the explicit-path bookkeeping of pruned
        mappings only exists in dense form).
    """

    def __init__(
        self,
        labels: Sequence[str],
        max_length: int,
        selectivities: Union[
            Mapping[PathLike, int], np.ndarray, tuple[np.ndarray, np.ndarray]
        ],
        *,
        graph_name: str = "",
        storage: str = "auto",
    ) -> None:
        if max_length < 1:
            raise PathError("max_length must be >= 1")
        if not labels:
            raise PathError("the label alphabet must not be empty")
        if storage not in CATALOG_STORAGE_MODES:
            raise PathError(
                f"unknown storage mode {storage!r}; expected one of "
                f"{CATALOG_STORAGE_MODES}"
            )
        self._labels = tuple(sorted(set(labels)))
        # Hoisted ranking state so per-query index arithmetic is one dict
        # lookup per label, not a rebuilt rank map per call.
        self._rank_of = {label: digit for digit, label in enumerate(self._labels)}
        base = len(self._labels)
        self._block_starts = [0]
        for length in range(1, max_length):
            self._block_starts.append(self._block_starts[-1] + base**length)
        self._max_length = max_length
        self._graph_name = graph_name
        self._domain_size = domain_size(len(self._labels), max_length)
        self._total: Optional[int] = None
        self._max: Optional[int] = None
        self._frequencies: Optional[np.ndarray] = None
        self._nz_indices: Optional[np.ndarray] = None
        self._nz_values: Optional[np.ndarray] = None
        self._explicit: Optional[np.ndarray] = None
        if isinstance(selectivities, tuple):
            self._init_from_nonzeros(*selectivities, storage=storage)
        elif isinstance(selectivities, np.ndarray):
            self._init_from_vector(selectivities, storage=storage)
        else:
            self._init_from_mapping(selectivities, storage=storage)

    # ------------------------------------------------------------------
    # construction branches
    # ------------------------------------------------------------------
    def _init_from_vector(self, frequencies: np.ndarray, *, storage: str) -> None:
        if frequencies.shape != (self._domain_size,):
            raise PathError(
                f"frequency vector has shape {frequencies.shape}, expected "
                f"({self._domain_size},) for |L|={len(self._labels)}, "
                f"k={self._max_length}"
            )
        if (
            isinstance(frequencies, np.memmap)
            and frequencies.dtype == np.int64
            and frequencies.flags["C_CONTIGUOUS"]
        ):
            # A memory-mapped vector is adopted as-is: converting would
            # materialise it (or silently drop the memmap type), and the
            # negative-value scan would fault in every page of an
            # artifact this library wrote and validated itself.  It also
            # stays dense regardless of ``storage`` — mmap *is* the
            # at-scale story for dense vectors, and its pages are already
            # reclaimable file cache.
            self._frequencies = frequencies
            self._frequencies.setflags(write=False)
            self._storage = "dense"
            return
        frequencies = np.ascontiguousarray(frequencies, dtype=np.int64)
        if frequencies.size and int(frequencies.min()) < 0:
            position = int(np.argmin(frequencies))
            raise PathError(
                f"negative selectivity at domain index {position}: "
                f"{int(frequencies[position])}"
            )
        if storage == "auto":
            storage = _resolve_auto_storage(
                self._domain_size, int(np.count_nonzero(frequencies))
            )
        if storage == "sparse":
            indices = np.nonzero(frequencies)[0]
            self._adopt_nonzeros(indices, frequencies[indices])
            return
        self._frequencies = frequencies
        self._frequencies.setflags(write=False)
        self._storage = "dense"

    def _init_from_nonzeros(
        self, indices: np.ndarray, values: np.ndarray, *, storage: str
    ) -> None:
        if (
            storage != "dense"
            and isinstance(indices, np.memmap)
            and isinstance(values, np.memmap)
            and indices.dtype == np.int64
            and values.dtype == np.int64
            and indices.ndim == 1
            and indices.shape == values.shape
            and indices.flags["C_CONTIGUOUS"]
            and values.flags["C_CONTIGUOUS"]
        ):
            # Memory-mapped nonzero pairs are adopted as-is, mirroring the
            # dense memmap branch of ``_init_from_vector``: converting would
            # materialise (or silently strip) the memmap, and the
            # monotonicity/range scans would fault in every page of a
            # sidecar this library wrote and validated itself.
            self._nz_indices = indices
            self._nz_values = values
            self._nz_indices.setflags(write=False)
            self._nz_values.setflags(write=False)
            self._storage = "sparse"
            return
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.int64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise PathError(
                "sparse selectivities must be aligned one-dimensional "
                "(indices, values) arrays"
            )
        if values.size and int(values.min()) < 0:
            position = int(np.argmin(values))
            raise PathError(
                f"negative selectivity at domain index "
                f"{int(indices[position])}: {int(values[position])}"
            )
        if values.size and int(values.min()) == 0:
            # Explicit zeros carry no information in either storage mode;
            # dropping them here keeps the sparse invariants simple.
            mask = values > 0
            indices, values = indices[mask], values[mask]
        if indices.size:
            if int(indices.min()) < 0 or int(indices.max()) >= self._domain_size:
                raise PathError(
                    f"sparse index out of range [0, {self._domain_size}) for "
                    f"|L|={len(self._labels)}, k={self._max_length}"
                )
            if not bool(np.all(np.diff(indices) > 0)):
                raise PathError(
                    "sparse indices must be strictly increasing (sorted, "
                    "no duplicates)"
                )
        if storage == "auto":
            storage = _resolve_auto_storage(self._domain_size, int(indices.size))
        if storage == "dense":
            frequencies = np.zeros(self._domain_size, dtype=np.int64)
            frequencies[indices] = values
            self._frequencies = frequencies
            self._frequencies.setflags(write=False)
            self._storage = "dense"
            return
        self._adopt_nonzeros(indices, values)

    def _adopt_nonzeros(self, indices: np.ndarray, values: np.ndarray) -> None:
        self._nz_indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._nz_values = np.ascontiguousarray(values, dtype=np.int64)
        self._nz_indices.setflags(write=False)
        self._nz_values.setflags(write=False)
        self._storage = "sparse"

    def _init_from_mapping(
        self, selectivities: Mapping[PathLike, int], *, storage: str
    ) -> None:
        paths = list(selectivities.keys())
        values = (
            np.fromiter(
                (int(selectivities[path]) for path in paths),
                dtype=np.int64,
                count=len(paths),
            )
            if paths
            else np.empty(0, dtype=np.int64)
        )
        indices = (
            paths_to_domain_indices(paths, self._labels, max_length=self._max_length)
            if paths
            else np.empty(0, dtype=np.int64)
        )
        if values.size and int(values.min()) < 0:
            position = int(np.argmin(values))
            raise PathError(
                f"negative selectivity for {as_label_path(paths[position])}: "
                f"{int(values[position])}"
            )
        # One sort finds duplicate domain indices (a str key and a LabelPath
        # key can spell the same path); detecting them beats the old
        # last-write-wins scatter, which silently kept an arbitrary value.
        order = np.argsort(indices, kind="stable")
        sorted_indices = indices[order]
        duplicate = np.nonzero(np.diff(sorted_indices) == 0)[0]
        if duplicate.size:
            position = int(order[int(duplicate[0]) + 1])
            raise PathError(
                f"duplicate path in catalog mapping: "
                f"{as_label_path(paths[position])}"
            )
        if storage in ("auto", "dense"):
            # Mappings keep the legacy dense layout: a partial mapping
            # carries an explicit-path mask, which only exists densely.
            frequencies = np.zeros(self._domain_size, dtype=np.int64)
            frequencies[indices] = values
            explicit = np.zeros(self._domain_size, dtype=bool)
            explicit[indices] = True
            self._frequencies = frequencies
            self._frequencies.setflags(write=False)
            # A mapping that covers the whole domain is just a dense catalog.
            self._explicit = None if bool(explicit.all()) else explicit
            self._storage = "dense"
            return
        sorted_values = values[order]
        mask = sorted_values > 0
        self._adopt_nonzeros(sorted_indices[mask], sorted_values[mask])

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: LabeledDiGraph,
        max_length: int,
        *,
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int], None]] = None,
        storage: str = "auto",
    ) -> "SelectivityCatalog":
        """Build the catalog by exact evaluation of every path on ``graph``.

        ``storage="dense"`` runs the columnar builder
        (:func:`~repro.paths.enumeration.compute_selectivity_vector`):
        counts land directly in the O(|Lk|) frequency vector.  ``"sparse"``
        and ``"auto"`` run the sparse builder
        (:func:`~repro.paths.enumeration.compute_selectivity_nonzeros`),
        which touches O(nnz) memory and never materialises zero subtrees;
        ``"auto"`` then keeps the sparse form when the domain is large and
        mostly zero, and scatters into a dense vector otherwise.  Both run
        the same matrix-chain kernel, so results are identical across
        storage modes.
        """
        if storage not in CATALOG_STORAGE_MODES:
            raise PathError(
                f"unknown storage mode {storage!r}; expected one of "
                f"{CATALOG_STORAGE_MODES}"
            )
        alphabet = sorted(labels) if labels is not None else graph.labels()
        name = graph.name or "unnamed"
        if storage == "dense":
            vector = compute_selectivity_vector(
                graph, max_length, labels=alphabet, progress=progress
            )
            return cls.from_frequencies(
                alphabet, max_length, vector, graph_name=name, copy=False
            )
        indices, counts = compute_selectivity_nonzeros(
            graph, max_length, labels=alphabet, progress=progress
        )
        return cls(
            alphabet,
            max_length,
            (indices, counts),
            graph_name=name,
            storage=storage,
        )

    def delta_requires_full_rebuild(self, graph: LabeledDiGraph) -> bool:
        """Whether :meth:`apply_delta` must fall back to a full cold rebuild.

        True when the post-delta ``graph``'s label alphabet no longer
        matches this catalog's (the canonical index space itself moved) or
        the catalog was built from a *pruned mapping* (its explicit-path
        mask cannot be patched).  Sparse-storage catalogs patch fine — only
        the affected subtree index ranges are recomputed, in sparse form.
        The engine consults the same predicate for its stats, so what is
        reported always matches what ran.
        """
        return (
            tuple(sorted(graph.labels())) != self._labels
            or self._explicit is not None
        )

    def apply_delta(
        self,
        graph: LabeledDiGraph,
        delta: GraphDelta,
        *,
        progress: Optional[Callable[[int], None]] = None,
        affected: Optional[Sequence[str]] = None,
    ) -> "SelectivityCatalog":
        """A new catalog reflecting ``delta``, rebuilt incrementally.

        ``graph`` must be the **post-delta** graph (apply the delta with
        :meth:`GraphDelta.apply` first); ``delta`` is used only to decide
        which first-label subtrees to re-evaluate.  The catalog itself is
        immutable — a new instance is returned, equal to :meth:`from_graph`
        on the post-delta graph, in the same storage mode as this catalog
        (dense catalogs patch the frequency vector through
        :func:`~repro.paths.enumeration.update_selectivity_vector`, sparse
        ones splice the affected subtree index ranges through
        :func:`~repro.paths.enumeration.update_selectivity_nonzeros`).

        The incremental path requires an unchanged label alphabet and no
        explicit-path mask; otherwise this falls back to a full cold
        rebuild (see :meth:`delta_requires_full_rebuild`).  ``affected``
        optionally forwards a precomputed
        :func:`~repro.graph.delta.affected_first_labels` result.
        """
        if self.delta_requires_full_rebuild(graph):
            return SelectivityCatalog.from_graph(
                graph,
                self._max_length,
                progress=progress,
                storage=self._storage,
            )
        name = graph.name or self._graph_name
        if self._storage == "sparse":
            indices, values = update_selectivity_nonzeros(
                graph,
                self._max_length,
                self._nz_indices,
                self._nz_values,
                delta,
                labels=self._labels,
                progress=progress,
                affected=affected,
            )
            return SelectivityCatalog(
                self._labels,
                self._max_length,
                (indices, values),
                graph_name=name,
                storage="sparse",
            )
        vector = update_selectivity_vector(
            graph,
            self._max_length,
            self._frequencies,
            delta,
            labels=self._labels,
            progress=progress,
            affected=affected,
        )
        return SelectivityCatalog.from_frequencies(
            self._labels,
            self._max_length,
            vector,
            graph_name=name,
            copy=False,
        )

    @classmethod
    def from_frequencies(
        cls,
        labels: Sequence[str],
        max_length: int,
        frequencies: np.ndarray,
        *,
        graph_name: str = "",
        copy: bool = True,
        storage: str = "dense",
    ) -> "SelectivityCatalog":
        """Build from a dense canonical-order frequency vector.

        ``copy=True`` (the default) leaves the caller's array untouched;
        ``copy=False`` adopts it zero-copy, after which the catalog marks it
        read-only (builders that hand over a freshly allocated vector use
        this).  ``storage`` defaults to ``"dense"`` — the input is already
        the dense representation — but ``"sparse"``/``"auto"`` convert.
        """
        if copy:
            frequencies = np.array(frequencies, dtype=np.int64)
        return cls(
            labels, max_length, frequencies, graph_name=graph_name, storage=storage
        )

    @classmethod
    def from_nonzeros(
        cls,
        labels: Sequence[str],
        max_length: int,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        graph_name: str = "",
        copy: bool = True,
        storage: str = "sparse",
    ) -> "SelectivityCatalog":
        """Build from aligned sorted (canonical index, count) nonzero arrays.

        The sparse counterpart of :meth:`from_frequencies`.  ``copy=False``
        adopts the arrays zero-copy (they are marked read-only).
        """
        if copy:
            indices = np.array(indices, dtype=np.int64)
            values = np.array(values, dtype=np.int64)
        return cls(
            labels,
            max_length,
            (indices, values),
            graph_name=graph_name,
            storage=storage,
        )

    def to_dense(self) -> "SelectivityCatalog":
        """This catalog in dense storage (``self`` when already dense)."""
        if self._storage == "dense":
            return self
        return SelectivityCatalog.from_nonzeros(
            self._labels,
            self._max_length,
            self._nz_indices,
            self._nz_values,
            graph_name=self._graph_name,
            copy=False,
            storage="dense",
        )

    def to_sparse(self) -> "SelectivityCatalog":
        """This catalog in sparse storage (``self`` when already sparse).

        Catalogs built from a pruned mapping refuse the conversion: their
        explicit-path mask has no sparse representation.
        """
        if self._storage == "sparse":
            return self
        if self._explicit is not None:
            raise PathError(
                "a pruned-mapping catalog (explicit-path mask) cannot be "
                "converted to sparse storage"
            )
        indices = np.nonzero(self._frequencies)[0]
        return SelectivityCatalog.from_nonzeros(
            self._labels,
            self._max_length,
            indices,
            self._frequencies[indices],
            graph_name=self._graph_name,
            copy=False,
            storage="sparse",
        )

    # ------------------------------------------------------------------
    # core accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        """The label alphabet ``L`` (sorted)."""
        return self._labels

    @property
    def max_length(self) -> int:
        """The maximum path length ``k``."""
        return self._max_length

    @property
    def graph_name(self) -> str:
        """Name of the graph the catalog was built from (may be empty)."""
        return self._graph_name

    @property
    def domain_size(self) -> int:
        """``|Lk|`` — the size of the full label-path domain."""
        return self._domain_size

    @property
    def storage(self) -> str:
        """The storage mode actually in use: ``"dense"`` or ``"sparse"``."""
        return self._storage

    @property
    def mmap_backed(self) -> bool:
        """Whether the stored representation lives in memory-mapped files.

        ``True`` when the dense frequency vector, or both sparse nonzero
        arrays, are :class:`numpy.memmap` instances — the state
        ``ArtifactCache.load_catalog(mmap=True)`` produces from an
        uncompressed sidecar.  Memmap-backed catalogs charge 0 in
        :meth:`memory_bytes` and share pages across forked workers.
        """
        if self._storage == "sparse":
            return isinstance(self._nz_indices, np.memmap) and isinstance(
                self._nz_values, np.memmap
            )
        return isinstance(self._frequencies, np.memmap)

    @property
    def is_dense(self) -> bool:
        """Whether every domain path has a stored (possibly implicit) value.

        ``True`` for dense-storage catalogs without an explicit-path mask
        *and* for sparse-storage catalogs (their implicit entries are real
        zeros, not unknowns); ``False`` only for catalogs built from a
        pruned mapping.  See :attr:`storage` for the representation.
        """
        return self._explicit is None

    @property
    def nnz(self) -> int:
        """Number of paths with a strictly positive selectivity."""
        if self._storage == "sparse":
            return int(self._nz_indices.size)
        return int(np.count_nonzero(self._frequencies))

    @property
    def density(self) -> float:
        """``nnz / |Lk|`` — the fraction of the domain that is nonzero."""
        return self.nnz / self._domain_size

    def memory_bytes(self) -> int:
        """Resident bytes of the stored representation.

        O(nnz) for sparse storage (indices + counts), O(|Lk|) for dense —
        except memory-mapped arrays, which charge 0 (their pages are
        reclaimable file cache, shared across forked workers).  This is the
        number the serving layer's byte-budget eviction charges per catalog.
        """
        if self._storage == "sparse":
            return sum(
                int(array.nbytes)
                for array in (self._nz_indices, self._nz_values)
                if not isinstance(array, np.memmap)
            )
        if isinstance(self._frequencies, np.memmap):
            return 0
        total = int(self._frequencies.nbytes)
        if self._explicit is not None:
            total += int(self._explicit.nbytes)
        return total

    def frequency_vector(self) -> np.ndarray:
        """The ``int64`` frequency vector in canonical domain order.

        Position ``i`` is ``f`` of the ``i``-th path of
        :func:`~repro.paths.enumeration.enumerate_label_paths` over the
        catalog's alphabet; paths without a stored value read 0.  Dense
        catalogs return their (read-only) backing array; **sparse catalogs
        materialise a fresh O(|Lk|) array on every call** — hot paths should
        use :meth:`nonzero_arrays` instead.
        """
        if self._storage == "sparse":
            vector = np.zeros(self._domain_size, dtype=np.int64)
            vector[self._nz_indices] = self._nz_values
            return vector
        return self._frequencies

    def nonzero_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Aligned ``(indices, values)`` arrays of the nonzero paths.

        Sorted canonical domain indices and strictly positive counts —
        O(nnz), read-only views for sparse catalogs, computed on the fly for
        dense ones.  This is the stream the sparse-aware histogram builders
        consume.
        """
        if self._storage == "sparse":
            return self._nz_indices, self._nz_values
        indices = np.nonzero(self._frequencies)[0]
        return indices, self._frequencies[indices]

    def _domain_index(self, path: PathLike) -> int:
        """Canonical index of ``path``, validating alphabet and length.

        Same arithmetic as :func:`~repro.paths.index.path_to_domain_index`,
        inlined over the catalog's precomputed rank map and block offsets
        (this sits on the per-query hot path of ``selectivity``).
        """
        label_path = as_label_path(path)
        length = label_path.length
        if length > self._max_length:
            raise PathError(
                f"path {label_path} longer than catalog max_length={self._max_length}"
            )
        rank_of = self._rank_of
        base = len(self._labels)
        value = 0
        for label in label_path:
            digit = rank_of.get(label)
            if digit is None:
                raise UnknownLabelError(label)
            value = value * base + digit
        return self._block_starts[length - 1] + value

    def _value_at(self, index: int) -> int:
        """The stored selectivity at a canonical domain index."""
        if self._storage == "sparse":
            position = int(np.searchsorted(self._nz_indices, index))
            if (
                position < self._nz_indices.size
                and int(self._nz_indices[position]) == index
            ):
                return int(self._nz_values[position])
            return 0
        return int(self._frequencies[index])

    def selectivity(self, path: PathLike) -> int:
        """The true selectivity ``f(ℓ)`` (0 for paths absent from the graph).

        Raises for paths outside the domain (unknown labels or too long) so
        that experiment code cannot silently query a mismatched catalog.
        """
        return self._value_at(self._domain_index(path))

    def selectivities_at(self, indices) -> np.ndarray:
        """Vectorised selectivities for a batch of canonical domain indices.

        One fancy-index for dense storage, one ``searchsorted`` for sparse.
        Out-of-range indices raise :class:`PathError`.
        """
        positions = np.ascontiguousarray(indices, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(positions.min()) < 0 or int(positions.max()) >= self._domain_size:
            raise PathError(
                f"domain index out of range [0, {self._domain_size}) for "
                f"|L|={len(self._labels)}, k={self._max_length}"
            )
        if self._storage == "dense":
            return self._frequencies[positions]
        if self._nz_indices.size == 0:
            return np.zeros(positions.size, dtype=np.int64)
        found = np.minimum(
            np.searchsorted(self._nz_indices, positions), self._nz_indices.size - 1
        )
        hit = self._nz_indices[found] == positions
        out = np.zeros(positions.size, dtype=np.int64)
        out[hit] = self._nz_values[found[hit]]
        return out

    def label_selectivity(self, label: str) -> int:
        """Selectivity of the length-1 path for ``label``."""
        return self.selectivity(LabelPath.single(label))

    def label_selectivities(self) -> dict[str, int]:
        """Selectivity of every single label, keyed by label."""
        return {label: self.label_selectivity(label) for label in self._labels}

    def paths(self) -> Iterator[LabelPath]:
        """Iterate over the paths with an explicitly stored selectivity.

        Catalogs covering the whole domain (from a graph or a frequency
        vector, in either storage mode) yield all of ``Lk``; pruned-mapping
        catalogs yield only the mapped paths.  Iteration is in canonical
        domain order.
        """
        if self._explicit is None:
            return enumerate_label_paths(self._labels, self._max_length)
        return iter(
            domain_indices_to_paths(
                np.nonzero(self._explicit)[0], self._labels, self._max_length
            )
        )

    def items(self) -> Iterator[tuple[LabelPath, int]]:
        """Iterate over ``(path, selectivity)`` for explicitly stored paths."""
        if self._explicit is not None:
            indices = np.nonzero(self._explicit)[0]
            frequencies = self._frequencies
            return (
                (path, int(frequencies[index]))
                for path, index in zip(
                    domain_indices_to_paths(
                        indices, self._labels, self._max_length
                    ),
                    indices,
                )
            )
        if self._storage == "dense":
            frequencies = self._frequencies
            return (
                (path, int(frequencies[index]))
                for index, path in enumerate(
                    enumerate_label_paths(self._labels, self._max_length)
                )
            )
        return self._sparse_items()

    def _sparse_items(self) -> Iterator[tuple[LabelPath, int]]:
        """Full-domain ``(path, value)`` walk merged against the nonzeros."""
        nz_indices = self._nz_indices
        nz_values = self._nz_values
        pointer = 0
        for index, path in enumerate(
            enumerate_label_paths(self._labels, self._max_length)
        ):
            if pointer < nz_indices.size and int(nz_indices[pointer]) == index:
                yield path, int(nz_values[pointer])
                pointer += 1
            else:
                yield path, 0

    def nonzero_paths(self) -> list[LabelPath]:
        """All stored paths with a strictly positive selectivity.

        Unranking is batched through
        :func:`~repro.paths.index.domain_indices_to_paths` (vectorised digit
        peeling) instead of one scalar conversion per path.
        """
        indices, _ = self.nonzero_arrays()
        return domain_indices_to_paths(indices, self._labels, self._max_length)

    def total_selectivity(self) -> int:
        """Sum of ``f(ℓ)`` over all stored paths (cached after first call)."""
        if self._total is None:
            if self._storage == "sparse":
                self._total = int(self._nz_values.sum())
            else:
                self._total = int(self._frequencies.sum())
        return self._total

    def max_selectivity(self) -> int:
        """The largest stored selectivity (0 for an empty catalog; cached)."""
        if self._max is None:
            if self._storage == "sparse":
                self._max = int(self._nz_values.max(initial=0))
            else:
                self._max = int(self._frequencies.max(initial=0))
        return self._max

    def restrict(self, max_length: int) -> "SelectivityCatalog":
        """A new catalog containing only paths of length ≤ ``max_length``.

        The canonical order is length-major, so restriction is a prefix
        slice of the frequency vector (dense) or a ``searchsorted`` cut of
        the nonzero arrays (sparse).  The storage mode is preserved.
        """
        if max_length > self._max_length:
            raise PathError(
                f"cannot restrict to max_length={max_length} > {self._max_length}"
            )
        size = domain_size(len(self._labels), max_length)
        if self._storage == "sparse":
            cut = int(np.searchsorted(self._nz_indices, size))
            return SelectivityCatalog.from_nonzeros(
                self._labels,
                max_length,
                self._nz_indices[:cut],
                self._nz_values[:cut],
                graph_name=self._graph_name,
                storage="sparse",
            )
        restricted = SelectivityCatalog(
            self._labels,
            max_length,
            self._frequencies[:size].copy(),
            graph_name=self._graph_name,
            storage="dense",
        )
        if self._explicit is not None:
            mask = self._explicit[:size].copy()
            restricted._explicit = None if bool(mask.all()) else mask
        return restricted

    def __len__(self) -> int:
        if self._explicit is None:
            return self._domain_size
        return int(self._explicit.sum())

    def __contains__(self, path: object) -> bool:
        if not isinstance(path, (str, LabelPath, tuple)):
            return False
        try:
            index = self._domain_index(path)  # type: ignore[arg-type]
        except (PathError, UnknownLabelError):
            return False
        return self._explicit is None or bool(self._explicit[index])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<SelectivityCatalog graph={self._graph_name!r} |L|={len(self._labels)} "
            f"k={self._max_length} stored={len(self)} storage={self._storage!r}>"
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable representation of the catalog."""
        return {
            "graph_name": self._graph_name,
            "labels": list(self._labels),
            "max_length": self._max_length,
            "selectivities": {str(path): value for path, value in self.items()},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "SelectivityCatalog":
        """Rebuild a catalog from :meth:`to_dict` output."""
        try:
            labels = [str(label) for label in document["labels"]]  # type: ignore[index]
            max_length = int(document["max_length"])  # type: ignore[arg-type]
            raw = document["selectivities"]  # type: ignore[index]
        except (KeyError, TypeError, ValueError) as exc:
            raise PathError(f"invalid catalog document: {exc}") from exc
        selectivities = {
            LabelPath.parse(path): int(value) for path, value in dict(raw).items()
        }
        return cls(
            labels,
            max_length,
            selectivities,
            graph_name=str(document.get("graph_name", "")),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the catalog to ``path`` as JSON (the interoperable form).

        :meth:`save_npz` is the compact binary alternative the engine's
        artifact cache uses.
        """
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")

    def save_npz(self, path: Union[str, Path]) -> None:
        """Write the catalog to ``path`` as a compressed ``.npz`` archive.

        The archive stores metadata (``labels``, ``max_length``,
        ``graph_name``, ``format_version`` = :data:`CATALOG_NPZ_VERSION`)
        plus the representation: the dense ``frequencies`` vector (and the
        explicit-path mask when one exists) for dense storage, the aligned
        ``nz_indices`` / ``nz_values`` pair — O(nnz) on disk too — for
        sparse storage.
        """
        arrays: dict[str, np.ndarray] = {
            "format_version": np.asarray(CATALOG_NPZ_VERSION, dtype=np.int64),
            "labels": np.asarray(self._labels, dtype=np.str_),
            "max_length": np.asarray(self._max_length, dtype=np.int64),
            "graph_name": np.asarray(self._graph_name, dtype=np.str_),
        }
        if self._storage == "sparse":
            arrays["nz_indices"] = self._nz_indices
            arrays["nz_values"] = self._nz_values
        else:
            arrays["frequencies"] = self._frequencies
            if self._explicit is not None:
                arrays["explicit"] = self._explicit
        with open(Path(path), "wb") as handle:
            np.savez_compressed(handle, **arrays)

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "SelectivityCatalog":
        """Read a catalog previously written by :meth:`save_npz`.

        Both layouts of format version 2 (dense and sparse) and the legacy
        dense-only version 1 load transparently; the storage mode is
        whatever the archive carries.
        """
        with np.load(Path(path), allow_pickle=False) as archive:
            try:
                version = int(archive["format_version"])
                if version not in (1, CATALOG_NPZ_VERSION):
                    raise PathError(
                        f"unsupported catalog npz format version {version} "
                        f"(expected <= {CATALOG_NPZ_VERSION})"
                    )
                labels = [str(label) for label in archive["labels"]]
                max_length = int(archive["max_length"])
                graph_name = str(archive["graph_name"])
                if "nz_indices" in archive.files:
                    indices = np.asarray(archive["nz_indices"], dtype=np.int64)
                    values = np.asarray(archive["nz_values"], dtype=np.int64)
                    return cls(
                        labels,
                        max_length,
                        (indices, values),
                        graph_name=graph_name,
                        storage="sparse",
                    )
                frequencies = np.asarray(archive["frequencies"], dtype=np.int64)
                explicit = (
                    np.asarray(archive["explicit"], dtype=bool)
                    if "explicit" in archive.files
                    else None
                )
            except KeyError as exc:
                raise PathError(f"invalid catalog npz archive: missing {exc}") from exc
        catalog = cls(
            labels, max_length, frequencies, graph_name=graph_name, storage="dense"
        )
        if explicit is not None:
            if explicit.shape != catalog._frequencies.shape:
                raise PathError("invalid catalog npz archive: bad explicit mask")
            catalog._explicit = None if bool(explicit.all()) else explicit
        return catalog

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SelectivityCatalog":
        """Read a catalog written by :meth:`save` or :meth:`save_npz`.

        The format is sniffed from the file content (``.npz`` archives are
        zip files), so old JSON catalogs keep loading transparently.
        """
        target = Path(path)
        with open(target, "rb") as handle:
            magic = handle.read(2)
        if magic == b"PK":
            return cls.load_npz(target)
        with open(target, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        return cls.from_dict(document)
