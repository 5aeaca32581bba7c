"""Building label-path histograms from a catalog and an ordering.

:class:`LabelPathHistogram` is the user-facing object of the whole library:
it couples an ordering of the label-path domain with a bucketised histogram
of the true selectivities in that order, and answers ``estimate(path)``
point queries — the operation the paper times in Table 4 and scores in
Figure 2.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import HistogramError
from repro.histogram.base import Histogram
from repro.histogram.endbiased import EndBiasedHistogram
from repro.histogram.equidepth import EquiDepthHistogram
from repro.histogram.equiwidth import EquiWidthHistogram
from repro.histogram.maxdiff import MaxDiffHistogram
from repro.histogram.sparse import SparseFrequencies
from repro.histogram.vopt import VOptimalHistogram
from repro.ordering.base import Ordering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.label_path import LabelPath

__all__ = [
    "HISTOGRAM_KINDS",
    "SPARSE_LAYOUT_MAX_DENSITY",
    "SPARSE_LAYOUT_MIN_DOMAIN",
    "LabelPathHistogram",
    "build_histogram",
    "dense_layout",
    "domain_frequencies",
    "make_histogram",
]

#: The sparse layout needs a domain at least this large (below it the dense
#: array is a few KB and the position table a few thousand entries) ...
SPARSE_LAYOUT_MIN_DOMAIN = 4096

#: ... and a nonzero share at or below this density.
SPARSE_LAYOUT_MAX_DENSITY = 0.25

#: Histogram kind name -> class.
HISTOGRAM_KINDS: dict[str, type[Histogram]] = {
    EquiWidthHistogram.kind: EquiWidthHistogram,
    EquiDepthHistogram.kind: EquiDepthHistogram,
    MaxDiffHistogram.kind: MaxDiffHistogram,
    EndBiasedHistogram.kind: EndBiasedHistogram,
    VOptimalHistogram.kind: VOptimalHistogram,
}

PathLike = Union[str, LabelPath]


def dense_layout(domain: int, nnz: int) -> bool:
    """Whether a catalog of ``nnz`` nonzero paths in ``domain`` is laid out densely.

    The one dense/sparse choice of the pipeline.  True for small domains
    and for dense signals: there an engine session keeps a path → position
    table (a dict lookup beats on-demand ranking for the handful of paths a
    point request carries) and :func:`domain_frequencies` returns a dense
    array (the dense histogram algorithms beat the sparse ones once most of
    the domain is nonzero).  False for large, mostly-zero domains, where
    both would cost O(|Lk|) for O(nnz) of signal: sessions rank on demand
    and the histogram is built over a
    :class:`~repro.histogram.sparse.SparseFrequencies` view.
    """
    return domain < SPARSE_LAYOUT_MIN_DOMAIN or nnz > domain * SPARSE_LAYOUT_MAX_DENSITY


def domain_frequencies(
    catalog: SelectivityCatalog,
    ordering: Ordering,
    *,
    positions: Optional[np.ndarray] = None,
) -> Union[np.ndarray, SparseFrequencies]:
    """The catalog's selectivities laid out in the ordering's index order.

    Element ``i`` of the result is ``f(ordering.path(i))``; this is the data
    distribution the histogram is built over (the black curve of the paper's
    Figure 1, in whichever order ``ordering`` prescribes).

    Only the nonzero paths are ranked (through ``positions`` or
    :meth:`Ordering.rank_domain_indices`).  When :func:`dense_layout` holds
    for the catalog they are scattered into a dense float array; otherwise
    the layout comes back as a
    :class:`~repro.histogram.sparse.SparseFrequencies` view, O(nnz) end to
    end.  The histogram constructors accept either form and produce
    byte-identical bucket boundaries.

    ``positions``, when given, is the precomputed full permutation
    (``positions[i]`` = ordering index of the ``i``-th path of the canonical
    enumeration, as cached by the engine's artifact store).
    """
    if set(ordering.labels) != set(catalog.labels):
        raise HistogramError(
            "ordering and catalog use different label alphabets: "
            f"{sorted(ordering.labels)} vs {sorted(catalog.labels)}"
        )
    if ordering.max_length > catalog.max_length:
        raise HistogramError(
            f"ordering max_length={ordering.max_length} exceeds catalog "
            f"max_length={catalog.max_length}"
        )
    if positions is not None and positions.shape != (ordering.size,):
        raise HistogramError(
            f"position table has shape {positions.shape}, "
            f"expected ({ordering.size},)"
        )
    nz_indices, nz_values = catalog.nonzero_arrays()
    # The canonical order is length-major, so a shorter ordering domain is
    # a prefix of the canonical index space.
    cut = int(np.searchsorted(nz_indices, ordering.size))
    nz_indices = nz_indices[:cut]
    nz_values = nz_values[:cut]
    mapped = (
        positions[nz_indices]
        if positions is not None
        else ordering.rank_domain_indices(nz_indices)
    )
    if dense_layout(catalog.domain_size, catalog.nnz):
        frequencies = np.zeros(ordering.size, dtype=float)
        frequencies[mapped] = nz_values
        return frequencies
    order = np.argsort(mapped, kind="stable")
    return SparseFrequencies(mapped[order], nz_values[order].astype(float), ordering.size)


def make_histogram(
    frequencies, kind: str, bucket_count: int, **kwargs
) -> Histogram:
    """Construct a histogram of the given ``kind`` over a frequency vector."""
    try:
        histogram_cls = HISTOGRAM_KINDS[kind]
    except KeyError:
        raise HistogramError(
            f"unknown histogram kind {kind!r}; expected one of "
            f"{sorted(HISTOGRAM_KINDS)}"
        ) from None
    return histogram_cls(frequencies, bucket_count, **kwargs)


class LabelPathHistogram:
    """A histogram over the label-path domain under a specific ordering.

    Parameters
    ----------
    ordering:
        The domain ordering (bijection ``Lk ↔ [0, |Lk|)``).
    histogram:
        A histogram whose domain size equals ``ordering.size``.
    """

    def __init__(self, ordering: Ordering, histogram: Histogram) -> None:
        if histogram.domain_size != ordering.size:
            raise HistogramError(
                f"histogram domain ({histogram.domain_size}) does not match the "
                f"ordering domain ({ordering.size})"
            )
        self._ordering = ordering
        self._histogram = histogram

    @property
    def ordering(self) -> Ordering:
        """The domain ordering."""
        return self._ordering

    @property
    def histogram(self) -> Histogram:
        """The underlying bucketised histogram."""
        return self._histogram

    @property
    def bucket_count(self) -> int:
        """Number of buckets ``β``."""
        return self._histogram.bucket_count

    @property
    def method_name(self) -> str:
        """The ordering method name (``num-alph``, ..., ``sum-based``)."""
        return self._ordering.full_name

    def estimate(self, path: PathLike) -> float:
        """The selectivity estimate ``e(ℓ)`` for a label path."""
        return self._histogram.estimate(self._ordering.index(path))

    def estimate_index(self, index: int) -> float:
        """The estimate for a raw domain index (bypassing the ordering)."""
        return self._histogram.estimate(index)

    def estimate_batch(self, paths) -> np.ndarray:
        """Estimates for a batch of paths, in input order (vectorised lookup).

        Ranking still happens per path through the ordering; the bucket
        lookup is a single vectorised call.  The engine layer
        (:mod:`repro.engine`) goes further and replaces the per-path ranking
        with a precomputed position table.
        """
        indices = np.fromiter(
            (self._ordering.index(path) for path in paths), dtype=np.int64
        )
        return self._histogram.estimate_batch(indices)

    def estimate_indices(self, indices) -> np.ndarray:
        """Vectorised estimates for raw domain positions (bypassing ranking)."""
        return self._histogram.estimate_batch(indices)

    def total_sse(self) -> float:
        """Total within-bucket SSE of the underlying histogram."""
        return self._histogram.total_sse()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<LabelPathHistogram method={self.method_name!r} "
            f"kind={self._histogram.kind!r} buckets={self.bucket_count}>"
        )


def build_histogram(
    catalog: SelectivityCatalog,
    ordering: Ordering,
    *,
    kind: str = VOptimalHistogram.kind,
    bucket_count: int,
    frequencies: Optional[Union[np.ndarray, SparseFrequencies]] = None,
    **kwargs,
) -> LabelPathHistogram:
    """Build a :class:`LabelPathHistogram` from a catalog under an ordering.

    Parameters
    ----------
    catalog / ordering:
        The true selectivities and the domain ordering to lay them out in.
    kind:
        Histogram kind (default ``"v-optimal"``, the paper's choice).
    bucket_count:
        Number of buckets ``β``.
    frequencies:
        Optional pre-computed output of :func:`domain_frequencies` (dense
        array or sparse view), so sweeps that vary only ``bucket_count``
        avoid recomputing the layout.
    kwargs:
        Extra keyword arguments passed to the histogram constructor (e.g.
        ``strategy="greedy"`` for :class:`VOptimalHistogram`).
    """
    if frequencies is None:
        frequencies = domain_frequencies(catalog, ordering)
    histogram = make_histogram(frequencies, kind, bucket_count, **kwargs)
    return LabelPathHistogram(ordering, histogram)
