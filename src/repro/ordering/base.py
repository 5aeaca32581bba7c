"""Abstract interface of a histogram-domain ordering.

An *ordering* of the label-path domain ``Lk`` is a bijection between ``Lk``
and the integer interval ``[0, |Lk|)`` (Section 2 of the paper).  Every
concrete ordering exposes the two directions of that bijection:

* :meth:`Ordering.index` — ranking: label path → positional index;
* :meth:`Ordering.path` — unranking: positional index → label path.

Orderings are deterministic, stateless after construction, and cheap to call;
the estimation layer invokes :meth:`Ordering.index` once per point query.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.exceptions import IndexOutOfDomainError, OrderingError, UnknownLabelError
from repro.ordering.ranking import RankingRule
from repro.paths.enumeration import domain_size
from repro.paths.index import (
    canonical_digit_matrix,
    domain_indices_to_paths,
    paths_to_domain_indices,
)
from repro.paths.label_path import LabelPath, as_label_path

__all__ = ["Ordering"]

PathLike = Union[str, LabelPath]

#: Indices ranked per kernel pass: bounds the ``(n, k)`` temporaries of a
#: whole-domain ranking without costing a request-sized batch a second pass.
_RANK_CHUNK = 1 << 16


class Ordering:
    """Base class of all histogram-domain orderings.

    Parameters
    ----------
    ranking:
        The ranking rule over the base label set (``alph`` or ``card``).
    max_length:
        The maximum label-path length ``k`` the ordering covers.
    """

    #: Short ordering-rule name; combined with the ranking name it produces
    #: the full method name, e.g. ``"num-card"`` (see :attr:`full_name`).
    name: str = "base"

    def __init__(self, ranking: RankingRule, max_length: int) -> None:
        if max_length < 1:
            raise OrderingError("max_length must be >= 1")
        self._ranking = ranking
        self._max_length = max_length
        self._size = domain_size(ranking.size, max_length)
        self._canonical_labels = tuple(sorted(ranking.labels))
        # Bijective canonical digit (sorted-alphabet position plus one, 0 for
        # padding) -> ranking-rule rank (0 for padding).
        self._rank_of_digit = np.array(
            [0] + [ranking.rank(label) for label in self._canonical_labels],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def ranking(self) -> RankingRule:
        """The ranking rule over the base label set."""
        return self._ranking

    @property
    def labels(self) -> tuple[str, ...]:
        """The label alphabet (in rank order)."""
        return self._ranking.labels

    @property
    def max_length(self) -> int:
        """The maximum path length ``k``."""
        return self._max_length

    @property
    def size(self) -> int:
        """``|Lk|`` — the number of label paths the ordering covers."""
        return self._size

    @property
    def full_name(self) -> str:
        """The paper's naming convention ``<ordering rule>-<ranking rule>``."""
        return f"{self.name}-{self._ranking.name}"

    # ------------------------------------------------------------------
    # the bijection
    # ------------------------------------------------------------------
    def index(self, path: PathLike) -> int:
        """The positional index of ``path`` in ``[0, |Lk|)`` (ranking)."""
        raise NotImplementedError

    def path(self, index: int) -> LabelPath:
        """The label path at positional ``index`` (unranking)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def _validate_path(self, path: PathLike) -> LabelPath:
        """Parse and validate a path against the alphabet and ``max_length``."""
        label_path = as_label_path(path)
        if label_path.length > self._max_length:
            raise OrderingError(
                f"path {label_path} longer than ordering max_length={self._max_length}"
            )
        for label in label_path:
            if label not in self._ranking._rank_of:
                raise UnknownLabelError(label)
        return label_path

    def _validate_index(self, index: int) -> int:
        """Validate a positional index against the domain size."""
        if not isinstance(index, int):
            raise OrderingError(f"index must be an int, got {type(index).__name__}")
        if index < 0 or index >= self._size:
            raise IndexOutOfDomainError(index, self._size)
        return index

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def iter_paths(self) -> Iterator[LabelPath]:
        """Iterate over all label paths in index order (0, 1, 2, ...)."""
        for index in range(self._size):
            yield self.path(index)

    def indices(self, paths: Iterator[PathLike]) -> list[int]:
        """Indices of a batch of paths (in input order)."""
        return [self.index(path) for path in paths]

    # ------------------------------------------------------------------
    # vectorised ranking
    # ------------------------------------------------------------------
    def index_array(self, paths: Optional[Sequence[PathLike]] = None) -> np.ndarray:
        """Ordering indices of a batch of paths as one ``int64`` array.

        ``paths=None`` ranks the *entire domain* in canonical
        numerical-alphabetical enumeration order (the order of
        :func:`~repro.paths.enumeration.enumerate_label_paths` over the sorted
        alphabet) — exactly the position table the estimation engine caches.
        Orderings with a closed form parse the batch straight to canonical
        domain indices (:func:`~repro.paths.index.paths_to_domain_indices`,
        no ``LabelPath`` built) and rank them with
        :meth:`rank_domain_indices`; the others loop over :meth:`index`.
        Both routes agree element-wise by construction (and by test).
        """
        if paths is None:
            return self.rank_domain_indices(np.arange(self._size, dtype=np.int64))
        if not self._has_closed_form():
            return np.fromiter(
                (self.index(path) for path in paths), dtype=np.int64, count=len(paths)
            )
        return self.rank_domain_indices(
            paths_to_domain_indices(
                paths, self._canonical_labels, max_length=self._max_length
            )
        )

    def rank_domain_indices(self, indices) -> np.ndarray:
        """Ordering indices for a batch of *canonical* domain indices.

        Equivalent to ranking the paths those indices denote
        (``index_array(domain_indices_to_paths(indices, ...))``).  This is the
        one vectorised ranking kernel: the batch is decomposed once into a
        left-padded rank matrix (:func:`~repro.paths.index.canonical_digit_matrix`
        mapped through the ranking rule) and the ordering's closed form
        (:meth:`_rank_matrix`) ranks every length in the same pass.  The
        batch is processed in chunks of ``_RANK_CHUNK`` indices, which bounds
        the kernel's temporaries when a whole domain is ranked.  Orderings
        without a closed form fall back to :meth:`index` per path.
        """
        index_array = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
        if index_array.ndim != 1:
            raise OrderingError("domain indices must be one-dimensional")
        if not self._has_closed_form():
            paths = domain_indices_to_paths(
                index_array, self._canonical_labels, self._max_length
            )
            return np.fromiter(
                (self.index(path) for path in paths),
                dtype=np.int64,
                count=len(paths),
            )
        out = np.empty(index_array.size, dtype=np.int64)
        for start in range(0, index_array.size, _RANK_CHUNK):
            chunk = index_array[start : start + _RANK_CHUNK]
            lengths, digits = canonical_digit_matrix(
                self._ranking.size, self._max_length, chunk
            )
            out[start : start + chunk.size] = self._rank_matrix(
                lengths, self._rank_of_digit[digits]
            )
        return out

    def _rank_matrix(self, lengths: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Closed-form ranking of a left-padded rank matrix.

        ``ranks`` has shape ``(n, max_length)``: row ``i`` holds the
        ranking-rule ranks (``1..|L|``) of one path's labels, right-aligned
        behind ``max_length - lengths[i]`` zero pads.  Orderings with a
        closed-form index rule override this; the base class has none, which
        sends :meth:`index_array` and :meth:`rank_domain_indices` to the
        scalar loop.
        """
        raise NotImplementedError

    def _has_closed_form(self) -> bool:
        """Whether the ordering overrides :meth:`_rank_matrix`."""
        return type(self)._rank_matrix is not Ordering._rank_matrix

    # ------------------------------------------------------------------
    # vectorised unranking
    # ------------------------------------------------------------------
    def _validate_index_array(self, indices: Optional[Sequence[int]]) -> np.ndarray:
        """Validate a batch of ordering indices (``None`` = the full domain)."""
        if indices is None:
            return np.arange(self._size, dtype=np.int64)
        index_array = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
        if index_array.ndim != 1:
            raise OrderingError("ordering indices must be one-dimensional")
        if index_array.size:
            low = int(index_array.min())
            high = int(index_array.max())
            if low < 0:
                raise IndexOutOfDomainError(low, self._size)
            if high >= self._size:
                raise IndexOutOfDomainError(high, self._size)
        return index_array

    def path_array(self, indices: Optional[Sequence[int]] = None) -> list[LabelPath]:
        """Label paths at a batch of ordering indices (vectorised unranking).

        The inverse of :meth:`index_array`: ``indices=None`` unranks the
        *entire domain* in ordering order (element ``i`` is ``path(i)``).
        The base implementation loops over :meth:`path`; the closed-form
        orderings override this with per-length vectorised arithmetic, which
        is what makes unranking-heavy sweeps (``domain_indices_to_paths``
        over catalogs, experiment reports) cheap.  Both routes agree
        element-wise by construction (and by test).
        """
        index_array = self._validate_index_array(indices)
        return [self.path(int(index)) for index in index_array]

    def is_bijective_on_sample(self, sample_size: int = 64) -> bool:
        """Spot-check that ``path(index(·))`` round-trips on a domain sample.

        Checks evenly spaced indices across the domain; used by the test-suite
        and by :func:`repro.ordering.registry.make_ordering` in debug mode.
        """
        if self._size <= 0:
            return True
        step = max(1, self._size // max(1, sample_size))
        for index in range(0, self._size, step):
            if self.index(self.path(index)) != index:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<{type(self).__name__} {self.full_name!r} |L|={self._ranking.size} "
            f"k={self._max_length} size={self._size}>"
        )
