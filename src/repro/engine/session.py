"""The batched estimation engine.

:class:`EstimationSession` is the serving-side counterpart of the paper's
offline pipeline.  It builds the full chain *once* — label matrices →
selectivity catalog → ordering → histogram — persists the expensive
artifacts to an :class:`~repro.engine.cache.ArtifactCache` keyed by the graph
digest and the engine configuration, and then answers selectivity estimates
in bulk: :meth:`EstimationSession.estimate_batch` maps thousands of paths to
domain positions — through a precomputed path → position table when the
catalog takes the dense layout, through the orderings' one vectorised
ranking kernel (:meth:`~repro.ordering.base.Ordering.index_array`)
otherwise (see :func:`~repro.histogram.builder.dense_layout`) — and
resolves them against the histogram with one vectorised lookup, avoiding
the per-path Python overhead of calling ``estimate`` in a loop.

A warm start (same graph, same config, same cache directory) loads every
artifact from disk and skips catalog construction entirely — the dominant
cost for any realistic ``k``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.engine.cache import ArtifactCache
from repro.engine.fingerprint import config_digest, graph_digest
from repro.estimation.estimator import PathSelectivityEstimator
from repro.exceptions import EngineError, OrderingError
from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.digraph import LabeledDiGraph
from repro.histogram.builder import (
    LabelPathHistogram,
    build_histogram,
    dense_layout,
    domain_frequencies,
)
from repro.histogram.vopt import VOptimalHistogram
from repro.obs import tracing
from repro.obs.metrics import BUILD_BUCKETS, Histogram
from repro.ordering.base import Ordering
from repro.ordering.registry import make_ordering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.label_path import SEPARATOR, LabelPath

__all__ = ["EngineConfig", "SessionStats", "EstimationSession"]

PathLike = Union[str, LabelPath]

#: Estimated bytes per position-table entry (dict slot + key string + int).
_POSITION_TABLE_BYTES_PER_PATH = 120

#: Per-stage build latency, shared by every session in the process: cold
#: vs. warm vs. delta costs are decomposable per stage from one series.
_STAGE_SECONDS = Histogram(
    "repro_build_stage_seconds",
    "Session build stage latency in seconds, by stage.",
    buckets=BUILD_BUCKETS,
    labelnames=("stage",),
)


@dataclass(frozen=True)
class EngineConfig:
    """Everything that determines the engine's artifacts for one graph.

    Two sessions with equal configs over byte-identical graphs share every
    cache artifact; changing any field invalidates exactly the artifacts it
    feeds into (``max_length`` invalidates all three, ``ordering`` and the
    histogram fields only the histogram and position table).
    """

    max_length: int = 3
    ordering: str = "sum-based"
    histogram_kind: str = VOptimalHistogram.kind
    bucket_count: int = 64

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise EngineError("max_length must be >= 1")
        if self.bucket_count < 1:
            raise EngineError("bucket_count must be >= 1")

    @classmethod
    def from_args(cls, args: object, **overrides: object) -> "EngineConfig":
        """Build a config from a parsed CLI namespace.

        Reads the shared flag block (``-k/--max-length``, ``--ordering``,
        ``--histogram``, ``--buckets``) that
        :func:`repro.cli.add_engine_options` installs on every engine-facing
        subcommand, falling back to the dataclass defaults for any flag the
        surface does not carry.  ``overrides`` win over both.
        """
        values = {
            "max_length": getattr(args, "max_length", cls.max_length),
            "ordering": getattr(args, "ordering", cls.ordering),
            "histogram_kind": getattr(args, "histogram", cls.histogram_kind),
            "bucket_count": getattr(args, "buckets", cls.bucket_count),
        }
        values.update(overrides)
        return cls(**values)  # type: ignore[arg-type]

    def catalog_fields(self) -> dict[str, object]:
        """The config fields the catalog artifact depends on.

        ``catalog_format`` versions the on-disk artifact layout: bumping it
        re-keys every catalog, so an entry written under an older format is
        never read under a new-format key.  Format 4 is the gap-encoded
        nonzero archive (npz version 3).
        """
        return {"max_length": self.max_length, "catalog_format": 4}

    def histogram_fields(self) -> dict[str, object]:
        """The config fields the histogram / position artifacts depend on.

        Includes ``catalog_fields`` (the histogram is built from the catalog,
        and every catalog-invalidating change must invalidate it too).
        """
        return {
            **self.catalog_fields(),
            "ordering": self.ordering,
            "histogram_kind": self.histogram_kind,
            "bucket_count": self.bucket_count,
        }


@dataclass
class SessionStats:
    """Provenance and timing of one session build (for logs and benchmarks)."""

    graph_digest: str = ""
    catalog_key: str = ""
    histogram_key: str = ""
    catalog_from_cache: bool = False
    histogram_from_cache: bool = False
    positions_from_cache: bool = False
    catalog_seconds: float = 0.0
    histogram_seconds: float = 0.0
    positions_seconds: float = 0.0
    total_seconds: float = 0.0
    domain_size: int = 0
    memory_bytes: int = 0
    updated_from_delta: bool = False
    extra: dict[str, object] = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        """Flat dict for reporting / JSON emission."""
        return {
            "graph_digest": self.graph_digest[:12],
            "catalog_key": self.catalog_key,
            "histogram_key": self.histogram_key,
            "catalog_from_cache": self.catalog_from_cache,
            "histogram_from_cache": self.histogram_from_cache,
            "positions_from_cache": self.positions_from_cache,
            "catalog_seconds": self.catalog_seconds,
            "histogram_seconds": self.histogram_seconds,
            "positions_seconds": self.positions_seconds,
            "total_seconds": self.total_seconds,
            "domain_size": self.domain_size,
            "memory_bytes": self.memory_bytes,
            "updated_from_delta": self.updated_from_delta,
            **self.extra,
        }


class EstimationSession:
    """A built estimation pipeline with a vectorised batch hot path.

    Construct with :meth:`build` (which consults the artifact cache) and then
    call :meth:`estimate` / :meth:`estimate_batch`.  The session is immutable
    and thread-safe for reads after construction.
    """

    def __init__(
        self,
        catalog: SelectivityCatalog,
        histogram: LabelPathHistogram,
        *,
        position_of: Mapping[str, int],
        config: EngineConfig,
        stats: Optional[SessionStats] = None,
        graph: Optional[LabeledDiGraph] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self._catalog = catalog
        self._histogram = histogram
        self._position_of = dict(position_of)
        # Sessions without a position table (large, mostly-zero domains,
        # where it would be O(|Lk|) memory) rank batches on demand through
        # the ordering's vectorised closed forms instead.
        self._lazy_positions = not self._position_of
        self._config = config
        self._stats = stats if stats is not None else SessionStats()
        self._estimator = PathSelectivityEstimator(histogram)
        # The source graph and artifact cache are retained (not copied) so
        # :meth:`update` can apply deltas and patch artifacts; sessions
        # constructed without them simply cannot be updated in place.
        self._graph = graph
        self._cache = cache

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        config: Optional[EngineConfig] = None,
        *,
        cache_dir: Optional[Union[str, "ArtifactCache"]] = None,
        mmap: bool = False,
    ) -> "EstimationSession":
        """Build (or warm-load) a session for ``graph`` under ``config``.

        Parameters
        ----------
        cache_dir:
            A directory path or an :class:`ArtifactCache`.  When given, the
            catalog / histogram / position artifacts are loaded from it on a
            hit and written to it on a miss.  ``None`` builds everything in
            memory.
        mmap:
            Prefer a memory-mapped catalog on a cache hit (see
            :meth:`ArtifactCache.load_catalog`).  Only changes how the
            nonzero arrays are backed; estimates are unaffected.
        """
        config = config if config is not None else EngineConfig()
        cache = cls._resolve_cache(cache_dir)
        stats = SessionStats()
        build_start = time.perf_counter()

        with tracing.span("session.fingerprint"):
            digest = graph_digest(graph)
        fingerprint_seconds = time.perf_counter() - build_start
        stats.extra["fingerprint_seconds"] = fingerprint_seconds
        _STAGE_SECONDS.observe(fingerprint_seconds, stage="fingerprint")
        stats.graph_digest = digest
        catalog_key, histogram_key = cls._artifact_keys(digest, config)
        stats.catalog_key = catalog_key
        stats.histogram_key = histogram_key

        # 1. Catalog: the expensive exact evaluation of the whole domain,
        #    kept as its sorted nonzero pair.  A corrupt cached artifact is
        #    quarantined (renamed aside) and rebuilt cold instead of failing
        #    the request — and failing it again on every subsequent build of
        #    the same key.
        start = time.perf_counter()
        catalog = None
        if cache is not None:
            try:
                with tracing.span("session.catalog_load", key=catalog_key):
                    catalog = cache.load_catalog(catalog_key, mmap=mmap)
            except EngineError:
                quarantined = cache.quarantine(catalog_key, kind="catalog")
                stats.extra["catalog_quarantined"] = len(quarantined)
        if catalog is None:
            with tracing.span("session.catalog_build"):
                catalog = SelectivityCatalog.from_graph(graph, config.max_length)
            if cache is not None:
                cache.store_catalog(catalog_key, catalog)
        else:
            stats.catalog_from_cache = True
            if cache is not None and mmap and not catalog.mmap_backed:
                # Warm-started from a remote fetch (which ships only the
                # ``.npz``) with mmap requested: backfill the sidecars so a
                # prefork parent's children share pages on the next load.
                cache.ensure_sidecars(catalog_key, catalog)
        stats.catalog_seconds = time.perf_counter() - start
        _STAGE_SECONDS.observe(stats.catalog_seconds, stage="catalog")

        return cls._assemble(
            graph=graph,
            catalog=catalog,
            config=config,
            cache=cache,
            stats=stats,
            histogram_key=histogram_key,
            build_start=build_start,
        )

    @staticmethod
    def _resolve_cache(
        cache_dir: Optional[Union[str, "ArtifactCache"]],
    ) -> Optional[ArtifactCache]:
        if cache_dir is None or isinstance(cache_dir, ArtifactCache):
            return cache_dir
        return ArtifactCache(cache_dir)

    @staticmethod
    def _artifact_keys(digest: str, config: EngineConfig) -> tuple[str, str]:
        """The (catalog, histogram) cache keys for one build."""
        prefix = digest[:24]
        return (
            f"{prefix}-{config_digest(config.catalog_fields())}",
            f"{prefix}-{config_digest(config.histogram_fields())}",
        )

    @classmethod
    def _assemble(
        cls,
        *,
        graph: LabeledDiGraph,
        catalog: SelectivityCatalog,
        config: EngineConfig,
        cache: Optional[ArtifactCache],
        stats: SessionStats,
        histogram_key: str,
        build_start: float,
    ) -> "EstimationSession":
        """Stages 2-4 of a build: ordering, position table, histogram, session.

        Shared by :meth:`build` (after loading or constructing the catalog)
        and :meth:`update` (after patching it): everything derived from the
        catalog is resolved against the cache under ``histogram_key`` and
        rebuilt on a miss.
        """
        # 2. Ordering (from the cached histogram when possible).  The load is
        #    timed into histogram_seconds below so the warm path's artifact
        #    parse cost is not attributed to no stage.  A corrupt cached
        #    histogram is quarantined and rebuilt, like every artifact kind.
        start = time.perf_counter()
        histogram = None
        if cache is not None:
            try:
                with tracing.span("session.histogram_load", key=histogram_key):
                    histogram = cache.load_histogram(histogram_key)
            except EngineError:
                quarantined = cache.quarantine(histogram_key, kind="histogram")
                stats.extra["histogram_quarantined"] = len(quarantined)
        ordering: Ordering
        if histogram is not None:
            ordering = histogram.ordering
            stats.histogram_from_cache = True
        else:
            with tracing.span("session.ordering", ordering=config.ordering):
                ordering = make_ordering(config.ordering, catalog=catalog)
        histogram_load_seconds = time.perf_counter() - start

        # 3. Position table: domain position of every path, in the stable
        #    numerical-alphabetical enumeration order of Lk.  Resolved before
        #    the histogram so a fresh histogram build can lay the catalog out
        #    through it without ranking again.  Catalogs outside the dense
        #    layout skip the table entirely — materialising O(|Lk|)
        #    positions (and a dict entry per path) would defeat the O(nnz)
        #    memory model — and rank queries on demand instead.
        start = time.perf_counter()
        positions: Optional[np.ndarray] = None
        position_of: dict[str, int] = {}
        if dense_layout(catalog.domain_size, catalog.nnz):
            if cache is not None:
                try:
                    positions = cache.load_positions(histogram_key)
                except EngineError:
                    positions = None
                    quarantined = cache.quarantine(histogram_key, kind="positions")
                    stats.extra["positions_quarantined"] = len(quarantined)
                if positions is not None and positions.shape != (ordering.size,):
                    # Parses fine but cannot belong to this domain: damaged
                    # or mis-written — quarantine and recompute, same as a
                    # parse failure.
                    quarantined = cache.quarantine(histogram_key, kind="positions")
                    stats.extra["positions_quarantined"] = len(quarantined)
                    positions = None
            if positions is None:
                # Vectorised ranking of the whole canonical enumeration; the
                # closed-form orderings compute this without a per-path loop.
                positions = ordering.index_array()
                if cache is not None:
                    cache.store_positions(histogram_key, positions)
            else:
                stats.positions_from_cache = True
            # Path strings in canonical order, each length extending the
            # previous length's strings: formatting one LabelPath per path
            # cost more than the rest of a remote warm start.
            names = list(catalog.labels)
            level = names
            for _ in range(1, config.max_length):
                level = [
                    f"{prefix}{SEPARATOR}{label}"
                    for prefix in level
                    for label in catalog.labels
                ]
                names += level
            position_of = dict(zip(names, positions.tolist()))
        else:
            stats.extra["lazy_positions"] = True
        stats.positions_seconds = time.perf_counter() - start
        _STAGE_SECONDS.observe(stats.positions_seconds, stage="positions")
        trace = tracing.current_trace()
        if trace is not None:
            trace.add_span("session.positions", stats.positions_seconds)

        # 4. Histogram, built over the catalog's domain layout on a miss.
        start = time.perf_counter()
        if histogram is None:
            # A serving engine should not refuse a tiny graph because the
            # configured β exceeds |Lk|; clamp instead (the requested value
            # stays in the cache key, so this cannot alias configs).
            bucket_count = min(config.bucket_count, ordering.size)
            with tracing.span("session.histogram", kind=config.histogram_kind):
                histogram = build_histogram(
                    catalog,
                    ordering,
                    kind=config.histogram_kind,
                    bucket_count=bucket_count,
                    frequencies=domain_frequencies(
                        catalog, ordering, positions=positions
                    ),
                )
            if cache is not None:
                try:
                    cache.store_histogram(histogram_key, histogram)
                except OrderingError:
                    # Materialised orderings (e.g. "ideal") cannot round-trip
                    # through the histogram artifact; the session still works,
                    # it just rebuilds the histogram on every start.
                    stats.extra["histogram_not_cacheable"] = True
        stats.histogram_seconds = histogram_load_seconds + time.perf_counter() - start
        _STAGE_SECONDS.observe(stats.histogram_seconds, stage="histogram")

        stats.total_seconds = time.perf_counter() - build_start
        _STAGE_SECONDS.observe(stats.total_seconds, stage="total")
        stats.domain_size = ordering.size
        stats.extra["catalog_nnz"] = catalog.nnz
        if catalog.mmap_backed:
            stats.extra["catalog_mmap"] = True
        session = cls(
            catalog,
            histogram,
            position_of=position_of,
            config=config,
            stats=stats,
            graph=graph,
            cache=cache,
        )
        stats.memory_bytes = session.memory_bytes()
        return session

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def update(
        self,
        delta: GraphDelta,
        *,
        graph: Optional[LabeledDiGraph] = None,
    ) -> "EstimationSession":
        """A new session reflecting ``delta``, rebuilt incrementally.

        The delta is applied to the session's retained graph **in place**
        (the graph object is shared, not copied — copying a large graph
        would defeat the point of an incremental update), the graph is
        re-fingerprinted, and the catalog is patched through
        :meth:`SelectivityCatalog.apply_delta` — only the affected
        first-label subtree slices are re-evaluated.  The patched catalog is
        written to the artifact cache under its new content-addressed key,
        and the derived histogram and position table are invalidated: they
        are rebuilt from the patched catalog (the ordering may rank paths
        differently under the new frequencies) and cached under the new
        histogram key.

        The existing session is untouched and keeps answering estimates
        against the pre-delta catalog — callers (the serving registry) swap
        to the returned session when ready, so in-flight work drains against
        a consistent snapshot.  Because the patched catalog is only correct
        relative to the graph this session's catalog was built from, the
        retained graph is re-fingerprinted *before* the delta applies:
        updating a superseded session (one whose graph was already mutated
        by a later update) raises :class:`EngineError` instead of silently
        poisoning the artifact cache — chain updates through the session
        each ``update`` returns.

        ``graph``, when given, is used instead of the retained graph and
        must be content-identical to it (same digest).  Callers whose graph
        object is shared with parties that must not observe the mutation
        (the serving registry, when two names share one session) pass a
        ``copy()`` here.
        """
        if self._graph is None and graph is None:
            raise EngineError(
                "this session retains no graph reference; build it with "
                "EstimationSession.build(graph, ...) to enable update()"
            )
        graph = graph if graph is not None else self._graph
        config = self._config
        expected_digest = self._stats.graph_digest
        if expected_digest and graph_digest(graph) != expected_digest:
            raise EngineError(
                "stale session: its graph no longer matches the catalog "
                "(it was mutated after this session was built — apply "
                "deltas to the session returned by the previous update)"
            )
        stats = SessionStats(updated_from_delta=True)
        build_start = time.perf_counter()

        delta_added, delta_removed = delta.apply(graph)
        digest = graph_digest(graph)
        stats.graph_digest = digest
        catalog_key, histogram_key = self._artifact_keys(digest, config)
        stats.catalog_key = catalog_key
        stats.histogram_key = histogram_key

        old_labels = self._catalog.labels
        full_rebuild = self._catalog.delta_requires_full_rebuild(graph)
        affected = (
            old_labels
            if full_rebuild
            else affected_first_labels(
                graph, delta, config.max_length, labels=old_labels
            )
        )
        stats.extra.update(
            {
                "delta_additions": delta_added,
                "delta_removals": delta_removed,
                "delta_affected_subtrees": len(affected),
                "delta_subtrees_total": len(old_labels),
                "delta_full_rebuild": full_rebuild,
            }
        )

        # 1'. Catalog: patch only the affected subtree slices, then persist
        #     the result under the new graph digest ("patching" the cached
        #     artifact — the old key keeps serving the pre-delta graph).
        start = time.perf_counter()
        with tracing.span("session.delta_catalog", subtrees=len(affected)):
            catalog = self._catalog.apply_delta(
                graph, delta, affected=None if full_rebuild else affected
            )
        if self._cache is not None:
            self._cache.store_catalog(catalog_key, catalog)
        stats.catalog_seconds = time.perf_counter() - start
        _STAGE_SECONDS.observe(stats.catalog_seconds, stage="delta_catalog")

        return self._assemble(
            graph=graph,
            catalog=catalog,
            config=config,
            cache=self._cache,
            stats=stats,
            histogram_key=histogram_key,
            build_start=build_start,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> SelectivityCatalog:
        """The selectivity catalog the session was built from."""
        return self._catalog

    @property
    def graph(self) -> Optional[LabeledDiGraph]:
        """The retained source graph (``None`` when constructed without one)."""
        return self._graph

    @property
    def cache(self) -> Optional[ArtifactCache]:
        """The artifact cache the session builds against (may be ``None``)."""
        return self._cache

    @property
    def histogram(self) -> LabelPathHistogram:
        """The label-path histogram answering the estimates."""
        return self._histogram

    @property
    def ordering(self) -> Ordering:
        """The domain ordering in use."""
        return self._histogram.ordering

    @property
    def estimator(self) -> PathSelectivityEstimator:
        """A conventional estimator over the same histogram (compat surface)."""
        return self._estimator

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def stats(self) -> SessionStats:
        """Build provenance and timings."""
        return self._stats

    @property
    def domain_size(self) -> int:
        """``|Lk|`` — the number of paths the session can estimate."""
        return self._histogram.ordering.size

    def memory_bytes(self) -> int:
        """Rough resident footprint of the session, in bytes.

        The serving registry's byte-budget eviction charges each session by
        this number: the catalog's nonzero arrays (zero when they are
        memory-mapped: those pages are reclaimable file cache), plus the
        position table (a dict of path string → int, estimated per entry;
        empty for sessions that rank on demand) and the histogram bucket
        arrays.  An estimate, not an audit.
        """
        total = self._catalog.memory_bytes()
        total += _POSITION_TABLE_BYTES_PER_PATH * len(self._position_of)
        total += 32 * self._histogram.bucket_count
        return total

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(self, path: PathLike) -> float:
        """The selectivity estimate ``e(ℓ)`` for one path."""
        return self._estimator.estimate(path)

    def position(self, path: PathLike) -> int:
        """The domain position of ``path`` under the session's ordering."""
        if self._lazy_positions:
            return self._histogram.ordering.index(path)
        key = path if isinstance(path, str) else str(path)
        try:
            return self._position_of[key]
        except KeyError:
            # Non-canonical spellings (whitespace, LabelPath-equivalent
            # strings) fall back to the ordering, which also produces the
            # right error for genuinely invalid paths.
            return self._histogram.ordering.index(path)

    def positions(self, paths: Sequence[PathLike]) -> np.ndarray:
        """Domain positions for a batch of paths, in input order."""
        if self._lazy_positions:
            return self._histogram.ordering.index_array(list(paths))
        table = self._position_of
        out = np.empty(len(paths), dtype=np.int64)
        for i, path in enumerate(paths):
            key = path if isinstance(path, str) else str(path)
            found = table.get(key, -1)
            out[i] = found if found >= 0 else self._histogram.ordering.index(path)
        return out

    def estimate_batch(self, paths: Sequence[PathLike]) -> np.ndarray:
        """Vectorised estimates for a batch of paths, in input order.

        Sessions with a position table resolve paths through it (one dict
        lookup each — no parsing, validation or ranking arithmetic on the
        hot path; for the handful of paths a serving request carries,
        cheaper than any vectorised ranking).  Sessions without one rank
        the whole batch on demand with
        :meth:`~repro.ordering.base.Ordering.index_array`, which parses
        the strings straight to canonical domain indices and ranks every
        length in one vectorised pass.  Either way the histogram answers
        all of them with a single vectorised bucket lookup, and the result
        agrees element-wise with a per-path :meth:`estimate` loop.
        """
        if len(paths) == 0:
            return np.empty(0, dtype=float)
        if self._lazy_positions:
            positions = self._histogram.ordering.index_array(list(paths))
            return self._histogram.estimate_indices(positions)
        table = self._position_of
        try:
            positions = np.fromiter(
                (table[p if isinstance(p, str) else str(p)] for p in paths),
                dtype=np.int64,
                count=len(paths),
            )
        except KeyError:
            positions = self.positions(paths)
        return self._histogram.estimate_indices(positions)

    def true_selectivity(self, path: PathLike) -> int:
        """Ground-truth ``f(ℓ)`` from the session's catalog."""
        return self._catalog.selectivity(path)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<EstimationSession method={self._histogram.method_name!r} "
            f"k={self._config.max_length} β={self._histogram.bucket_count} "
            f"domain={self.domain_size} "
            f"warm={self._stats.catalog_from_cache}>"
        )
