"""Multi-graph session registry with single-flight builds and LRU eviction.

A :class:`SessionRegistry` owns every :class:`~repro.engine.session.EstimationSession`
a service process serves.  Graphs are *registered* under a name (either an
in-memory :class:`~repro.graph.digraph.LabeledDiGraph` or an edge-list path
loaded lazily) and *built* on first use: the first request for a name loads
the graph, fingerprints it, and runs ``EstimationSession.build`` — every
concurrent request for the same name blocks on a per-source lock and then
finds the finished session, so exactly one build runs per (graph, config)
no matter how many clients ask at once.

Sessions are stored under their ``graph digest + config hash`` key, so two
names registered over byte-identical graphs with equal configs share one
session.  The registry evicts least-recently-used sessions beyond
``max_sessions`` and/or ``max_bytes`` (each session charged by
:meth:`~repro.engine.session.EstimationSession.memory_bytes`), and can keep
the shared on-disk :class:`~repro.engine.cache.ArtifactCache` inside a byte
budget too (``prune_cache_bytes``).

Builds are guarded by a **per-graph circuit breaker** (the shared
:class:`~repro.retry.CircuitBreaker`): after ``breaker_threshold``
consecutive failures for one name, further requests fast-fail with
:class:`~repro.exceptions.CircuitOpenError` (mapped to a 503 with a
``Retry-After`` hint) instead of re-running a doomed — possibly slow —
build on every request.  After ``breaker_reset_seconds`` the circuit goes
*half-open*: exactly one request probes a real build; success closes the
circuit, failure re-opens it for another full reset window.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, NoReturn, Optional, Union

from repro.engine.cache import ArtifactCache
from repro.engine.fingerprint import config_digest, graph_digest
from repro.engine.session import EngineConfig, EstimationSession
from repro.exceptions import CircuitOpenError, ServingError, UnknownGraphError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.graph.io import read_edge_list
from repro.obs import tracing
from repro.obs.metrics import (
    BUILD_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.retry import CircuitBreaker
from repro.testing import faults

__all__ = ["RegistryStats", "SessionRegistry"]


class RegistryStats:
    """Counters describing the registry's build/hit/eviction behaviour.

    Metric-backed: every counter lives in a :mod:`repro.obs.metrics`
    instrument — the same series ``GET /metrics`` renders — and the
    historical attribute names (``stats.builds``, ``stats.evictions``...)
    are read-only properties over those instruments, so existing callers
    and tests keep working unchanged.  Mutation happens through the
    ``observe_*`` methods.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else default_registry()
        self._build_seconds = Histogram(
            "repro_registry_build_seconds",
            "Session build latency in seconds, by graph.",
            buckets=BUILD_BUCKETS,
            labelnames=("graph",),
            registry=reg,
        )
        self._update_seconds = Histogram(
            "repro_registry_update_seconds",
            "Incremental graph-update latency in seconds.",
            buckets=BUILD_BUCKETS,
            registry=reg,
        )
        self._hits = Counter(
            "repro_registry_hits_total",
            "Session lookups answered from the resident LRU.",
            registry=reg,
        )
        self._single_flight_waits = Counter(
            "repro_registry_single_flight_waits_total",
            "Callers that blocked behind another caller's in-flight build.",
            registry=reg,
        )
        self._evictions = Counter(
            "repro_registry_evictions_total",
            "Sessions dropped from the resident LRU.",
            registry=reg,
        )
        self._evicted_bytes = Counter(
            "repro_registry_evicted_bytes_total",
            "Estimated resident bytes freed by session evictions.",
            registry=reg,
        )
        self._build_failures = Counter(
            "repro_registry_build_failures_total",
            "Session builds that raised.",
            registry=reg,
        )
        self._circuits_opened = Counter(
            "repro_registry_circuits_opened_total",
            "Circuit-breaker trips (closed/half-open to open).",
            registry=reg,
        )
        self._circuit_transitions = Counter(
            "repro_registry_circuit_transitions_total",
            "Circuit-breaker state transitions, by graph and new state.",
            labelnames=("graph", "state"),
            registry=reg,
        )
        self._circuit_fast_failures = Counter(
            "repro_registry_circuit_fast_failures_total",
            "Requests fast-failed by an open circuit.",
            registry=reg,
        )

    # -- mutation --------------------------------------------------------
    def observe_build(self, graph: str, seconds: float) -> None:
        """Record one successful session build and its latency."""
        self._build_seconds.observe(seconds, graph=graph)

    def observe_update(self, seconds: float) -> None:
        """Record one applied graph delta and its latency."""
        self._update_seconds.observe(seconds)

    def observe_hit(self) -> None:
        """Record one lookup answered from the resident LRU."""
        self._hits.inc()

    def observe_single_flight_wait(self) -> None:
        """Record one caller blocking behind an in-flight build."""
        self._single_flight_waits.inc()

    def observe_eviction(self, bytes_freed: int = 0) -> None:
        """Record one session eviction and the bytes it freed."""
        self._evictions.inc()
        if bytes_freed > 0:
            self._evicted_bytes.inc(bytes_freed)

    def observe_build_failure(self) -> None:
        """Record one session build that raised."""
        self._build_failures.inc()

    def observe_circuit_transition(self, graph: str, state: str) -> None:
        """Record a breaker transition; ``state`` is the state entered."""
        self._circuit_transitions.inc(graph=graph, state=state)
        if state == "open":
            self._circuits_opened.inc()

    def observe_circuit_fast_failure(self) -> None:
        """Record one request fast-failed by an open circuit."""
        self._circuit_fast_failures.inc()

    # -- the historical read surface ------------------------------------
    @property
    def builds(self) -> int:
        """Successful session builds."""
        return self._build_seconds.count()

    @property
    def build_seconds_total(self) -> float:
        """Total seconds spent in successful builds."""
        return self._build_seconds.total()

    @property
    def hits(self) -> int:
        """Lookups answered from the resident LRU."""
        return int(self._hits.value())

    @property
    def single_flight_waits(self) -> int:
        """Callers that blocked behind another caller's build."""
        return int(self._single_flight_waits.value())

    @property
    def evictions(self) -> int:
        """Sessions dropped from the resident LRU."""
        return int(self._evictions.value())

    @property
    def evicted_bytes(self) -> int:
        """Estimated resident bytes freed by evictions."""
        return int(self._evicted_bytes.value())

    @property
    def updates(self) -> int:
        """Applied graph deltas."""
        return self._update_seconds.count()

    @property
    def update_seconds_total(self) -> float:
        """Total seconds spent applying graph deltas."""
        return self._update_seconds.total()

    @property
    def build_failures(self) -> int:
        """Session builds that raised."""
        return int(self._build_failures.value())

    @property
    def circuits_opened(self) -> int:
        """Circuit-breaker trips."""
        return int(self._circuits_opened.value())

    @property
    def circuit_fast_failures(self) -> int:
        """Requests fast-failed by an open circuit."""
        return int(self._circuit_fast_failures.value())

    def as_row(self) -> dict[str, object]:
        """Flat dict for JSON emission (merged into the service stats)."""
        return {
            "builds": self.builds,
            "build_seconds_total": self.build_seconds_total,
            "hits": self.hits,
            "single_flight_waits": self.single_flight_waits,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "updates": self.updates,
            "update_seconds_total": self.update_seconds_total,
            "build_failures": self.build_failures,
            "circuits_opened": self.circuits_opened,
            "circuit_fast_failures": self.circuit_fast_failures,
        }


class _Source:
    """One registered graph: how to load it, its config, its build lock."""

    __slots__ = ("name", "loader", "config", "graph", "session_key", "lock", "breaker")

    def __init__(
        self,
        name: str,
        loader: Callable[[], LabeledDiGraph],
        config: EngineConfig,
        graph: Optional[LabeledDiGraph],
        breaker: CircuitBreaker,
    ) -> None:
        self.name = name
        self.loader = loader
        self.config = config
        # In-memory graphs are pinned; file-backed ones are loaded per build
        # (rebuilds after eviction are rare and warm-start from the cache).
        self.graph = graph
        self.session_key: Optional[str] = None
        self.lock = threading.Lock()
        self.breaker = breaker

    def load_graph(self) -> LabeledDiGraph:
        """The pinned graph if kept, otherwise a fresh load via the loader."""
        return self.graph if self.graph is not None else self.loader()


class SessionRegistry:
    """Named estimation sessions: lazy single-flight builds, LRU eviction.

    Parameters
    ----------
    cache_dir:
        Shared artifact cache (path or :class:`ArtifactCache`) consulted by
        every build; ``None`` builds in memory only.
    max_sessions / max_bytes:
        LRU budgets.  ``max_bytes`` charges each session its
        :meth:`~repro.engine.session.EstimationSession.memory_bytes`.  The
        most recently used session is never evicted, so a single oversized
        session still serves.
    mmap:
        Forwarded to :meth:`EstimationSession.build`.
    prune_cache_bytes:
        When set, :meth:`ArtifactCache.prune` runs after every build so the
        shared cache directory stays inside this byte budget.
    default_config:
        Config used by :meth:`register` calls that do not pass their own.
    breaker_threshold:
        Consecutive build failures for one graph that trip its circuit open
        (``None`` or ``0`` disables the breaker entirely).
    breaker_reset_seconds:
        How long an open circuit fast-fails before allowing one half-open
        probe build.
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[Union[str, Path, ArtifactCache]] = None,
        max_sessions: Optional[int] = None,
        max_bytes: Optional[int] = None,
        mmap: bool = False,
        prune_cache_bytes: Optional[int] = None,
        default_config: Optional[EngineConfig] = None,
        breaker_threshold: Optional[int] = 3,
        breaker_reset_seconds: float = 5.0,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ServingError("max_sessions must be >= 1")
        if max_bytes is not None and max_bytes < 0:
            raise ServingError("max_bytes must be >= 0")
        if breaker_threshold is not None and breaker_threshold < 0:
            raise ServingError("breaker_threshold must be >= 0 (0 disables)")
        if breaker_reset_seconds <= 0:
            raise ServingError("breaker_reset_seconds must be > 0")
        if cache_dir is None or isinstance(cache_dir, ArtifactCache):
            self._cache = cache_dir
        else:
            self._cache = ArtifactCache(cache_dir)
        self._max_sessions = max_sessions
        self._max_bytes = max_bytes
        self._mmap = mmap
        self._prune_cache_bytes = prune_cache_bytes
        self._breaker_threshold = breaker_threshold or 0
        self._breaker_reset = breaker_reset_seconds
        self._default_config = (
            default_config if default_config is not None else EngineConfig()
        )
        self._gate = threading.Lock()
        self._sources: dict[str, _Source] = {}
        self._sessions: "OrderedDict[str, EstimationSession]" = OrderedDict()
        self.stats = RegistryStats()
        # Scrape-time gauges: residency is read live at render instead of
        # being written on every build/evict.
        resident_gauge = Gauge(
            "repro_registry_sessions_resident",
            "Built sessions currently resident in memory.",
        )
        resident_gauge.set_function(self.session_count)
        bytes_gauge = Gauge(
            "repro_registry_sessions_bytes",
            "Estimated resident bytes across built sessions.",
        )
        bytes_gauge.set_function(self.memory_bytes)
        graphs_gauge = Gauge(
            "repro_registry_graphs_registered",
            "Graph names registered with the session registry.",
        )
        graphs_gauge.set_function(lambda: len(self._sources))

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        graph: Optional[LabeledDiGraph] = None,
        path: Optional[Union[str, Path]] = None,
        loader: Optional[Callable[[], LabeledDiGraph]] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        """Register a graph under ``name`` (exactly one source kind).

        Nothing is built yet; the first :meth:`get` (or :meth:`warm`) does.
        Re-registering a name replaces its source but leaves any built
        session of the old source in the LRU until evicted.
        """
        sources = [graph is not None, path is not None, loader is not None]
        if sum(sources) != 1:
            raise ServingError(
                "register() needs exactly one of graph=, path= or loader="
            )
        if not name:
            raise ServingError("graph name must be non-empty")
        if path is not None:
            target = Path(path)
            loader = lambda: read_edge_list(target)  # noqa: E731
        elif graph is None and loader is None:  # pragma: no cover - guarded above
            raise ServingError("unreachable")
        source = _Source(
            name,
            loader if loader is not None else (lambda: graph),
            config if config is not None else self._default_config,
            graph,
            CircuitBreaker(
                self._breaker_threshold,
                self._breaker_reset,
                lambda state: self.stats.observe_circuit_transition(name, state),
            ),
        )
        with self._gate:
            self._sources[name] = source

    def names(self) -> tuple[str, ...]:
        """The registered graph names, sorted."""
        with self._gate:
            return tuple(sorted(self._sources))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> EstimationSession:
        """The session for ``name``, building it on first use (single-flight).

        Concurrent callers for an unbuilt name all block on one per-source
        lock; the winner builds, the rest find the session in the LRU when
        the lock frees.  Raises :class:`UnknownGraphError` for unregistered
        names, :class:`CircuitOpenError` while the name's circuit is open.
        """
        try:
            with self._gate:
                source = self._sources[name]
        except KeyError:
            raise UnknownGraphError(name, self.names()) from None
        session = self._lookup(source)
        if session is not None:
            return session
        # Fast-fail an open circuit *before* queueing on the build lock:
        # callers must not line up behind a probe (or a doomed slow build)
        # just to be told the graph is unavailable.
        remaining = source.breaker.open_for()
        if remaining > 0:
            self._circuit_open(source, remaining)
        if not source.lock.acquire(blocking=False):
            self.stats.observe_single_flight_wait()
            source.lock.acquire()
        try:
            session = self._lookup(source)
            if session is not None:
                return session
            if not source.breaker.admit():
                # Re-check under the build lock: the circuit may have
                # (re-)opened while this caller waited behind a failed probe.
                self._circuit_open(source, source.breaker.open_for())
            try:
                session = self._build(source)
            except BaseException as exc:
                # BaseException too: a probe that leaves without a verdict
                # would hold the half-open circuit shut for good.
                self.stats.observe_build_failure()
                source.breaker.record_failure(exc)
                raise
            source.breaker.record_success()
            return session
        finally:
            source.lock.release()

    def _circuit_open(self, source: _Source, remaining: float) -> NoReturn:
        """Fast-fail a request for ``source``: its circuit is open."""
        self.stats.observe_circuit_fast_failure()
        raise CircuitOpenError(
            source.name,
            retry_after=max(0.0, remaining),
            failures=source.breaker.failures,
            last_error=source.breaker.last_error,
        )

    def _lookup(self, source: _Source) -> Optional[EstimationSession]:
        """The already-built session for ``source``, refreshing LRU recency."""
        with self._gate:
            key = source.session_key
            if key is None:
                return None
            session = self._sessions.get(key)
            if session is None:
                return None
            self._sessions.move_to_end(key)
            self.stats.observe_hit()
            return session

    @staticmethod
    def _session_key(digest: str, config: EngineConfig) -> str:
        """The LRU key of a session: graph digest prefix + config hash."""
        return f"{digest[:24]}-{config_digest(config.histogram_fields())}"

    def _build(self, source: _Source) -> EstimationSession:
        """Build (or warm-load) the session for ``source``; caller holds its lock."""
        graph = source.load_graph()
        key = self._session_key(graph_digest(graph), source.config)
        with self._gate:
            source.session_key = key
            session = self._sessions.get(key)
            if session is not None:
                # Another name over the same graph + config built it first.
                self._sessions.move_to_end(key)
                self.stats.observe_hit()
                return session
        started = time.perf_counter()
        with tracing.span("registry.build", graph=source.name):
            faults.fire("registry.build", graph=source.name)
            session = EstimationSession.build(
                graph,
                source.config,
                cache_dir=self._cache,
                mmap=self._mmap,
            )
        build_seconds = time.perf_counter() - started
        self.stats.observe_build(source.name, build_seconds)
        with self._gate:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            self._evict_over_budget()
        if self._prune_cache_bytes is not None and self._cache is not None:
            self._cache.prune(self._prune_cache_bytes)
        return session

    def _evict_over_budget(self) -> None:
        """Drop LRU sessions beyond the budgets; caller holds the gate."""
        while len(self._sessions) > 1 and (
            (self._max_sessions is not None and len(self._sessions) > self._max_sessions)
            or (
                self._max_bytes is not None
                and self._total_bytes() > self._max_bytes
            )
        ):
            _, evicted = self._sessions.popitem(last=False)
            self.stats.observe_eviction(evicted.memory_bytes())

    def _total_bytes(self) -> int:
        return sum(session.memory_bytes() for session in self._sessions.values())

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def update_graph(self, name: str, delta: GraphDelta) -> dict[str, object]:
        """Apply ``delta`` to ``name``'s graph and swap its session in place.

        The update runs under the source's single-flight lock, so it
        serialises with builds and other updates of the same name.  The swap
        itself is atomic under the registry gate and happens only once the
        new session is fully built: every concurrent :meth:`get` during the
        (possibly long) incremental rebuild keeps returning the *old*
        session, so in-flight estimates drain against the pre-delta catalog
        and no request ever observes a half-updated state.

        For a name without a built session the delta is applied to the
        source graph only (loaded — and from then on pinned in memory, so a
        file-backed source does not lose the delta on its next build) and
        the build stays lazy.  Returns a JSON-ready row describing what
        happened.
        """
        try:
            with self._gate:
                source = self._sources[name]
        except KeyError:
            raise UnknownGraphError(name, self.names()) from None
        with source.lock:
            with self._gate:
                old_key = source.session_key
                session = (
                    self._sessions.get(old_key) if old_key is not None else None
                )
            started = time.perf_counter()
            if session is None:
                graph = source.load_graph()
                added, removed = delta.apply(graph)
                source.graph = graph
                source.session_key = None
                update_seconds = time.perf_counter() - started
                self.stats.observe_update(update_seconds)
                return {
                    "graph": name,
                    "built": False,
                    "additions": added,
                    "removals": removed,
                    "seconds": update_seconds,
                }
            # If the session's retained graph object is also registered under
            # a sibling name (or is another name's pinned graph), mutate a
            # private copy instead: the sibling's object — possibly owned by
            # the operator — must not change under an update it never asked
            # for.
            with self._gate:
                graph_is_shared = any(
                    other is not source and other.graph is session.graph
                    for other in self._sources.values()
                )
            with tracing.span("registry.update", graph=name):
                new_session = session.update(
                    delta, graph=session.graph.copy() if graph_is_shared else None
                )
            update_seconds = time.perf_counter() - started
            stats = new_session.stats
            new_key = self._session_key(stats.graph_digest, source.config)
            with self._gate:
                # Swap: publish the new session and retire the old entry —
                # unless a sibling name still points at it (two names over
                # byte-identical graphs share one session); the sibling keeps
                # serving its consistent pre-delta snapshot until it is
                # updated or evicted itself.  Readers that grabbed the old
                # session keep using it either way.
                shared = any(
                    other is not source and other.session_key == old_key
                    for other in self._sources.values()
                )
                if old_key is not None and not shared:
                    self._sessions.pop(old_key, None)
                source.graph = new_session.graph
                source.session_key = new_key
                self._sessions[new_key] = new_session
                self._sessions.move_to_end(new_key)
                self.stats.observe_update(update_seconds)
                self._evict_over_budget()
            if self._prune_cache_bytes is not None and self._cache is not None:
                self._cache.prune(self._prune_cache_bytes)
            return {
                "graph": name,
                "built": True,
                "graph_digest": stats.graph_digest,
                "catalog_key": stats.catalog_key,
                "additions": stats.extra.get("delta_additions"),
                "removals": stats.extra.get("delta_removals"),
                "affected_subtrees": stats.extra.get("delta_affected_subtrees"),
                "subtrees_total": stats.extra.get("delta_subtrees_total"),
                "full_rebuild": stats.extra.get("delta_full_rebuild"),
                "seconds": update_seconds,
            }

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def warm(self, *names: str) -> dict[str, EstimationSession]:
        """Build (or touch) the given names — all of them when none given."""
        targets = names if names else self.names()
        return {name: self.get(name) for name in targets}

    def evict(self, name: str) -> bool:
        """Drop ``name``'s built session from memory (disk artifacts stay).

        Returns whether a session was actually dropped.  The next
        :meth:`get` rebuilds — warm-starting from the artifact cache when
        one is configured.
        """
        try:
            with self._gate:
                source = self._sources[name]
                key = source.session_key
                if key is None:
                    return False
                dropped = self._sessions.pop(key, None)
                if dropped is not None:
                    self.stats.observe_eviction(dropped.memory_bytes())
                return dropped is not None
        except KeyError:
            raise UnknownGraphError(name, self.names()) from None

    @property
    def cache(self) -> Optional[ArtifactCache]:
        """The shared artifact cache (``None`` when building in memory)."""
        return self._cache

    def session_count(self) -> int:
        """Number of currently built (resident) sessions."""
        with self._gate:
            return len(self._sessions)

    def memory_bytes(self) -> int:
        """Estimated resident bytes across every built session."""
        with self._gate:
            return self._total_bytes()

    def describe(self) -> list[dict[str, object]]:
        """One row per registered name (for the ``/graphs`` endpoint)."""
        with self._gate:
            rows = []
            for name in sorted(self._sources):
                source = self._sources[name]
                key = source.session_key
                session = self._sessions.get(key) if key is not None else None
                row: dict[str, object] = {
                    "name": name,
                    "built": session is not None,
                    "max_length": source.config.max_length,
                    "ordering": source.config.ordering,
                    "bucket_count": source.config.bucket_count,
                }
                if session is not None:
                    row["domain_size"] = session.domain_size
                    row["memory_bytes"] = session.memory_bytes()
                if self._breaker_threshold:
                    state, remaining = source.breaker.state()
                    row["circuit"] = state
                    row["consecutive_build_failures"] = source.breaker.failures
                    if state == "open":
                        row["retry_after_seconds"] = remaining
                rows.append(row)
            return rows

    def as_row(self) -> dict[str, object]:
        """Registry state + counters, for the service stats document."""
        with self._gate:
            row: dict[str, object] = {
                "graphs_registered": len(self._sources),
                "sessions_resident": len(self._sessions),
                "sessions_bytes": self._total_bytes(),
            }
        if self._cache is not None:
            row["cache_quarantined"] = self._cache.quarantined
        row.update(self.stats.as_row())
        return row

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<SessionRegistry graphs={len(self._sources)} "
            f"resident={self.session_count()} builds={self.stats.builds}>"
        )
