"""The path-selectivity catalog.

A :class:`SelectivityCatalog` stores the true selectivity ``f(ℓ)`` of every
label path in ``Lk`` for one graph.  It is the ground-truth distribution that

* orderings consult for cardinality ranking,
* histograms are built from, and
* the evaluation harness compares estimates against.

The catalog has one representation: a CSR-style pair of sorted ``int64``
canonical domain indices of the nonzero paths (the base-``|L|`` arithmetic
of :mod:`repro.paths.index`) and their aligned counts.  Every other path of
``Lk`` has selectivity 0.  Memory is O(nnz) and a point lookup is one
binary search, which is what lets large-alphabet/length scenarios
(``|L|=20, k=6`` has a 64M-path domain) build and serve at all.  Whether a
consumer lays the counts out densely is its own choice
(:func:`repro.histogram.builder.dense_layout`); the catalog never branches
on it.

Catalogs are expensive to build for large ``k`` (they require evaluating the
whole domain), so they can be persisted (:meth:`SelectivityCatalog.save_npz`)
and are treated as immutable once built.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import PathError, UnknownLabelError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    enumerate_label_paths,
    update_selectivity_nonzeros,
)
from repro.paths.index import (
    domain_indices_to_paths,
    paths_to_domain_indices,
)
from repro.paths.label_path import LabelPath, as_label_path

__all__ = ["SelectivityCatalog", "CATALOG_NPZ_VERSION"]

PathLike = Union[str, LabelPath]

#: Version stamp written into the ``.npz`` catalog format.  Version 3
#: stores the nonzero indices gap-encoded (``nz_gaps``); archives of
#: versions 1 and 2 are refused.
CATALOG_NPZ_VERSION = 3


class SelectivityCatalog:
    """True selectivities of every label path up to length ``k`` on one graph.

    Parameters
    ----------
    labels:
        The label alphabet ``L`` (sorted internally).
    max_length:
        The maximum path length ``k``.
    selectivities:
        One of three forms, each converted into the nonzero pair:

        * a mapping from paths in ``Lk`` to their true selectivity (paths
          the mapping leaves out have selectivity 0);
        * a dense ``int64`` frequency vector of ``|Lk|`` entries in canonical
          domain order;
        * an ``(indices, values)`` pair of aligned 1-D arrays — sorted
          canonical domain indices of the nonzero paths and their counts, as
          :func:`~repro.paths.enumeration.compute_selectivity_nonzeros`
          emits them.
    graph_name:
        Optional provenance string.
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
    ) -> None:
        if max_length < 1:
            raise PathError("max_length must be >= 1")
        if not labels:
            raise PathError("the label alphabet must not be empty")
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
        if isinstance(selectivities, tuple):
            self._init_from_nonzeros(*selectivities)
        elif isinstance(selectivities, np.ndarray):
            self._init_from_vector(selectivities)
        else:
            self._init_from_mapping(selectivities)

    # ------------------------------------------------------------------
    # construction branches
    # ------------------------------------------------------------------
    def _init_from_vector(self, frequencies: np.ndarray) -> None:
        if frequencies.shape != (self._domain_size,):
            raise PathError(
                f"frequency vector has shape {frequencies.shape}, expected "
                f"({self._domain_size},) for |L|={len(self._labels)}, "
                f"k={self._max_length}"
            )
        frequencies = np.asarray(frequencies, dtype=np.int64)
        if frequencies.size and int(frequencies.min()) < 0:
            position = int(np.argmin(frequencies))
            raise PathError(
                f"negative selectivity at domain index {position}: "
                f"{int(frequencies[position])}"
            )
        indices = np.nonzero(frequencies)[0]
        self._adopt_nonzeros(indices, frequencies[indices])

    def _init_from_nonzeros(self, indices: np.ndarray, values: np.ndarray) -> None:
        if (
            isinstance(indices, np.memmap)
            and isinstance(values, np.memmap)
            and indices.dtype == np.int64
            and values.dtype == np.int64
            and indices.ndim == 1
            and indices.shape == values.shape
            and indices.flags["C_CONTIGUOUS"]
            and values.flags["C_CONTIGUOUS"]
        ):
            # Memory-mapped nonzero pairs are adopted as-is: converting would
            # materialise (or silently strip) the memmap, and the
            # monotonicity/range scans would fault in every page of a
            # sidecar this library wrote and validated itself.
            self._adopt_nonzeros(indices, values)
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
            # Explicit zeros carry no information; dropping them here keeps
            # the nonzero invariants simple.
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
        self._adopt_nonzeros(indices, values)

    def _adopt_nonzeros(self, indices: np.ndarray, values: np.ndarray) -> None:
        self._nz_indices = indices
        self._nz_values = values
        self._nz_indices.setflags(write=False)
        self._nz_values.setflags(write=False)
        # Zero-copy sequence views for the scalar lookup: bisect over a
        # memoryview reads Python ints without a numpy call per probe.
        self._index_view = memoryview(indices)
        self._value_view = memoryview(values)

    def __getstate__(self) -> dict[str, object]:
        # Memoryviews do not pickle; __setstate__ rebuilds them.
        state = dict(self.__dict__)
        del state["_index_view"], state["_value_view"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._adopt_nonzeros(self._nz_indices, self._nz_values)

    def _init_from_mapping(self, selectivities: Mapping[PathLike, int]) -> None:
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
        # key can spell the same path); detecting them beats a
        # last-write-wins scatter, which would keep an arbitrary value.
        order = np.argsort(indices, kind="stable")
        sorted_indices = indices[order]
        duplicate = np.nonzero(np.diff(sorted_indices) == 0)[0]
        if duplicate.size:
            position = int(order[int(duplicate[0]) + 1])
            raise PathError(
                f"duplicate path in catalog mapping: "
                f"{as_label_path(paths[position])}"
            )
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
    ) -> "SelectivityCatalog":
        """Build the catalog by exact evaluation of every path on ``graph``.

        Runs :func:`~repro.paths.enumeration.compute_selectivity_nonzeros`,
        which touches O(nnz) memory and never materialises zero subtrees.
        """
        alphabet = sorted(labels) if labels is not None else graph.labels()
        indices, counts = compute_selectivity_nonzeros(
            graph, max_length, labels=alphabet, progress=progress
        )
        return cls(alphabet, max_length, (indices, counts), graph_name=graph.name or "unnamed")

    def delta_requires_full_rebuild(self, graph: LabeledDiGraph) -> bool:
        """Whether :meth:`apply_delta` must fall back to a full cold rebuild.

        True when the post-delta ``graph``'s label alphabet no longer
        matches this catalog's: the canonical index space itself moved.
        The engine consults the same predicate for its stats, so what is
        reported always matches what ran.
        """
        return tuple(sorted(graph.labels())) != self._labels

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
        on the post-delta graph: the affected subtree index ranges are
        spliced through
        :func:`~repro.paths.enumeration.update_selectivity_nonzeros`.

        The incremental path requires an unchanged label alphabet; otherwise
        this falls back to a full cold rebuild (see
        :meth:`delta_requires_full_rebuild`).  ``affected`` optionally
        forwards a precomputed
        :func:`~repro.graph.delta.affected_first_labels` result.
        """
        if self.delta_requires_full_rebuild(graph):
            return SelectivityCatalog.from_graph(graph, self._max_length, progress=progress)
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
            graph_name=graph.name or self._graph_name,
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
    ) -> "SelectivityCatalog":
        """Build from aligned sorted (canonical index, count) nonzero arrays.

        ``copy=False`` adopts the arrays zero-copy (they are marked
        read-only).
        """
        if copy:
            indices = np.array(indices, dtype=np.int64)
            values = np.array(values, dtype=np.int64)
        return cls(labels, max_length, (indices, values), graph_name=graph_name)

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
    def mmap_backed(self) -> bool:
        """Whether the nonzero arrays live in memory-mapped files.

        ``True`` when both arrays are :class:`numpy.memmap` instances — the
        state ``ArtifactCache.load_catalog(mmap=True)`` produces from the
        uncompressed sidecars.  Memmap-backed catalogs charge 0 in
        :meth:`memory_bytes` and share pages across forked workers.
        """
        return isinstance(self._nz_indices, np.memmap) and isinstance(self._nz_values, np.memmap)

    @property
    def nnz(self) -> int:
        """Number of paths with a strictly positive selectivity."""
        return int(self._nz_indices.size)

    @property
    def density(self) -> float:
        """``nnz / |Lk|`` — the fraction of the domain that is nonzero."""
        return self.nnz / self._domain_size

    def memory_bytes(self) -> int:
        """Resident bytes of the nonzero arrays (O(nnz)).

        Memory-mapped arrays charge 0: their pages are reclaimable file
        cache, shared across forked workers.  This is the number the
        serving layer's byte-budget eviction charges per catalog.
        """
        return sum(
            int(array.nbytes)
            for array in (self._nz_indices, self._nz_values)
            if not isinstance(array, np.memmap)
        )

    def frequency_vector(self) -> np.ndarray:
        """A fresh ``int64`` frequency vector in canonical domain order.

        Position ``i`` is ``f`` of the ``i``-th path of
        :func:`~repro.paths.enumeration.enumerate_label_paths` over the
        catalog's alphabet.  **Materialises O(|Lk|) memory on every call**
        — hot paths should use :meth:`nonzero_arrays` instead.
        """
        vector = np.zeros(self._domain_size, dtype=np.int64)
        vector[self._nz_indices] = self._nz_values
        return vector

    def nonzero_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Aligned ``(indices, values)`` arrays of the nonzero paths.

        Sorted canonical domain indices and strictly positive counts, as
        read-only views.  This is the stream the histogram builders consume.
        """
        return self._nz_indices, self._nz_values

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
        view = self._index_view
        position = bisect_left(view, index)
        if position < len(view) and view[position] == index:
            return self._value_view[position]
        return 0

    def selectivity(self, path: PathLike) -> int:
        """The true selectivity ``f(ℓ)`` (0 for paths absent from the graph).

        Raises for paths outside the domain (unknown labels or too long) so
        that experiment code cannot silently query a mismatched catalog.
        """
        return self._value_at(self._domain_index(path))

    def selectivities_at(self, indices) -> np.ndarray:
        """Vectorised selectivities for a batch of canonical domain indices.

        One ``searchsorted`` over the nonzero indices.  Out-of-range indices
        raise :class:`PathError`.
        """
        positions = np.ascontiguousarray(indices, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(positions.min()) < 0 or int(positions.max()) >= self._domain_size:
            raise PathError(
                f"domain index out of range [0, {self._domain_size}) for "
                f"|L|={len(self._labels)}, k={self._max_length}"
            )
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
        """Iterate over every path of ``Lk``, in canonical domain order."""
        return enumerate_label_paths(self._labels, self._max_length)

    def items(self) -> Iterator[tuple[LabelPath, int]]:
        """Full-domain ``(path, selectivity)`` walk merged against the nonzeros."""
        nz_indices = self._nz_indices
        nz_values = self._nz_values
        pointer = 0
        for index, path in enumerate(self.paths()):
            if pointer < nz_indices.size and int(nz_indices[pointer]) == index:
                yield path, int(nz_values[pointer])
                pointer += 1
            else:
                yield path, 0

    def nonzero_paths(self) -> list[LabelPath]:
        """All paths with a strictly positive selectivity.

        Unranking is batched through
        :func:`~repro.paths.index.domain_indices_to_paths` (vectorised digit
        peeling) instead of one scalar conversion per path.
        """
        return domain_indices_to_paths(self._nz_indices, self._labels, self._max_length)

    def total_selectivity(self) -> int:
        """Sum of ``f(ℓ)`` over the domain (cached after first call)."""
        if self._total is None:
            self._total = int(self._nz_values.sum())
        return self._total

    def max_selectivity(self) -> int:
        """The largest selectivity (0 for an empty catalog; cached)."""
        if self._max is None:
            self._max = int(self._nz_values.max(initial=0))
        return self._max

    def restrict(self, max_length: int) -> "SelectivityCatalog":
        """A new catalog containing only paths of length ≤ ``max_length``.

        The canonical order is length-major, so restriction is a
        ``searchsorted`` cut of the nonzero arrays.
        """
        if max_length > self._max_length:
            raise PathError(
                f"cannot restrict to max_length={max_length} > {self._max_length}"
            )
        size = domain_size(len(self._labels), max_length)
        cut = int(np.searchsorted(self._nz_indices, size))
        return SelectivityCatalog.from_nonzeros(
            self._labels,
            max_length,
            self._nz_indices[:cut],
            self._nz_values[:cut],
            graph_name=self._graph_name,
        )

    def __len__(self) -> int:
        return self._domain_size

    def __contains__(self, path: object) -> bool:
        if not isinstance(path, (str, LabelPath, tuple)):
            return False
        try:
            self._domain_index(path)  # type: ignore[arg-type]
        except (PathError, UnknownLabelError):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<SelectivityCatalog graph={self._graph_name!r} |L|={len(self._labels)} "
            f"k={self._max_length} nnz={self.nnz}>"
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_npz(self, path: Union[str, Path]) -> None:
        """Write the catalog to ``path`` as a compressed ``.npz`` archive.

        The archive stores metadata (``labels``, ``max_length``,
        ``graph_name``, ``format_version`` = :data:`CATALOG_NPZ_VERSION`)
        plus the nonzero pair: ``nz_gaps``, the index array gap-encoded as
        ``np.diff(indices, prepend=-1)`` (small, repetitive gaps deflate far
        better than raw indices, as in posting-list coding), and the aligned
        ``nz_values``.
        """
        arrays = {
            "format_version": np.asarray(CATALOG_NPZ_VERSION, dtype=np.int64),
            "labels": np.asarray(self._labels, dtype=np.str_),
            "max_length": np.asarray(self._max_length, dtype=np.int64),
            "graph_name": np.asarray(self._graph_name, dtype=np.str_),
            "nz_gaps": np.diff(self._nz_indices, prepend=-1),
            "nz_values": self._nz_values,
        }
        with open(Path(path), "wb") as handle:
            np.savez_compressed(handle, **arrays)

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "SelectivityCatalog":
        """Read a catalog previously written by :meth:`save_npz`.

        The decoded pair goes through the checked constructor, so a corrupt
        gap (a non-increasing or out-of-range index) raises
        :class:`PathError`, as does an archive of another format version.
        """
        with np.load(Path(path), allow_pickle=False) as archive:
            try:
                version = int(archive["format_version"])
                if version != CATALOG_NPZ_VERSION:
                    raise PathError(
                        f"unsupported catalog npz format version {version} "
                        f"(this release reads version {CATALOG_NPZ_VERSION} only; "
                        f"rebuild the catalog)"
                    )
                labels = [str(label) for label in archive["labels"]]
                max_length = int(archive["max_length"])
                graph_name = str(archive["graph_name"])
                gaps = np.asarray(archive["nz_gaps"], dtype=np.int64)
                values = np.asarray(archive["nz_values"], dtype=np.int64)
            except KeyError as exc:
                raise PathError(f"invalid catalog npz archive: missing {exc}") from exc
        return cls(labels, max_length, (np.cumsum(gaps) - 1, values), graph_name=graph_name)
