"""Micro-batching scheduler: coalesce point estimates into batched calls.

Individual ``estimate(path)`` requests forfeit the engine's ~40x batch
advantage: the vectorised hot path only pays off when many paths go through
one ``estimate_batch`` call.  :class:`EstimateScheduler` restores that
advantage for concurrent clients: requests land in a bounded queue, a single
worker thread drains them, waits up to a *coalescing window* (default 2 ms)
for more to arrive, groups everything by session, and issues **one**
``estimate_batch`` per session per batch.  Callers get a
:class:`concurrent.futures.Future` resolving to their own slice of the
results.

Backpressure is the bounded queue: when ``max_pending`` requests are already
waiting, ``submit_many`` raises
:class:`~repro.exceptions.ServiceOverloadedError` instead of queueing more
work than the service can absorb (the HTTP layer maps this to 503 with a
``Retry-After`` hint).  An optional per-graph admission budget
(``max_pending_per_graph``) additionally rejects a single hot graph with
:class:`~repro.exceptions.GraphOverloadedError` (HTTP 429) before it can
monopolise the shared queue.

The worker runs under a supervisor: if the drain loop ever crashes (a bug,
an injected fault, ``MemoryError``), the in-flight batch's futures are
failed with :class:`~repro.exceptions.SchedulerCrashError` — no caller is
ever stranded on an unresolved future — the restart is counted in
:class:`ServiceStats`, and a fresh loop resumes from the intact queue.

Every batch feeds :class:`ServiceStats` — request/path/batch counters,
coalesced batch sizes, queue-wait and batch-execution latency — so the
service's throughput story is observable from ``/stats`` and asserted by the
benchmark suite.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Optional, Sequence, Union

from repro.exceptions import (
    GraphOverloadedError,
    SchedulerCrashError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)
from repro.obs import tracing
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.paths.label_path import LabelPath
from repro.serving.registry import SessionRegistry
from repro.testing import faults

__all__ = ["ServiceStats", "EstimateScheduler"]

PathLike = Union[str, LabelPath]

#: Queue sentinel that tells the worker to exit after draining earlier work.
_SHUTDOWN = object()

#: Once a *drained* queue has already yielded this many paths, the batch
#: executes at once instead of waiting out the window: the window only
#: delays genuinely sparse traffic (where waiting is what buys coalescing),
#: never a flood that has already coalesced.
MIN_COALESCE_PATHS = 64


class ServiceStats:
    """Latency/throughput counters for the serving layer, metric-backed.

    Every number lives in a :mod:`repro.obs.metrics` instrument — the same
    series ``GET /metrics`` exposes — and :meth:`snapshot` is a *view* over
    those instruments that keeps the historical ``/stats`` JSON keys (plus
    ``batch_paths_min``, new with the histogram backing).  Each
    ``ServiceStats`` owns fresh instrument objects: the registry's
    replace-on-register semantics make the newest instance the one the
    scrape endpoint shows.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else default_registry()
        self._started_monotonic = time.perf_counter()
        self.started_unix = time.time()
        self._requests = Counter(
            "repro_scheduler_requests_total",
            "Estimate requests accepted and drained by the scheduler.",
            registry=reg,
        )
        self._paths = Counter(
            "repro_scheduler_paths_total",
            "Paths estimated across every drained request.",
            registry=reg,
        )
        self._rejected = Counter(
            "repro_scheduler_rejected_total",
            "Requests rejected at admission, by scope (queue or graph).",
            labelnames=("scope",),
            registry=reg,
        )
        self._errors = Counter(
            "repro_scheduler_errors_total",
            "Requests that failed while being served.",
            registry=reg,
        )
        self._restarts = Counter(
            "repro_scheduler_worker_restarts_total",
            "Supervisor-driven worker restarts after a crash.",
            registry=reg,
        )
        self._crashed = Counter(
            "repro_scheduler_crashed_requests_total",
            "In-flight requests failed by a worker crash.",
            registry=reg,
        )
        self._batch_paths = Histogram(
            "repro_scheduler_batch_paths",
            "Paths per coalesced batch.",
            buckets=SIZE_BUCKETS,
            registry=reg,
        )
        self._batch_requests = Histogram(
            "repro_scheduler_batch_requests",
            "Requests coalesced into each batch.",
            buckets=SIZE_BUCKETS,
            registry=reg,
        )
        self._batch_sessions = Histogram(
            "repro_scheduler_batch_sessions",
            "Distinct sessions touched per batch.",
            buckets=SIZE_BUCKETS,
            registry=reg,
        )
        self._batch_seconds = Histogram(
            "repro_scheduler_batch_seconds",
            "Batch execution latency in seconds.",
            buckets=LATENCY_BUCKETS,
            registry=reg,
        )
        self._wait_seconds = Histogram(
            "repro_scheduler_wait_seconds",
            "Per-request queue wait in seconds.",
            buckets=LATENCY_BUCKETS,
            registry=reg,
        )

    def observe_rejected(self) -> None:
        """Count one request rejected at submission (queue full / closed)."""
        self._rejected.inc(scope="queue")

    def observe_graph_rejected(self) -> None:
        """Count one request rejected by a per-graph admission budget (429)."""
        self._rejected.inc(scope="graph")

    def observe_worker_restart(self, crashed_requests: int) -> None:
        """Count one supervisor-driven worker restart and its failed batch."""
        self._restarts.inc()
        if crashed_requests:
            self._crashed.inc(crashed_requests)

    def observe_error(self, count: int = 1) -> None:
        """Count ``count`` requests that failed while being served."""
        self._errors.inc(count)

    def observe_batch(
        self,
        *,
        requests: int,
        paths: int,
        sessions: int,
        batch_seconds: float,
        wait_seconds: Sequence[float],
    ) -> None:
        """Record one drained batch (sizes, per-request waits, fan-out)."""
        # Submission counters are updated here too (not on the submit
        # path) so 32 submitting threads never contend on these series.
        self._requests.inc(requests)
        self._paths.inc(paths)
        self._batch_requests.observe(requests)
        self._batch_paths.observe(paths)
        self._batch_sessions.observe(sessions)
        self._batch_seconds.observe(batch_seconds)
        for waited in wait_seconds:
            self._wait_seconds.observe(waited)

    def snapshot(self) -> dict[str, object]:
        """Counters + derived rates as one JSON-ready dict.

        A view over the backing instruments: the historical keys are all
        preserved, with ``batch_paths_min`` added alongside the existing
        max/mean so ``/stats`` reports the full batch-size spread.
        """
        uptime = time.perf_counter() - self._started_monotonic
        batches = self._batch_paths.count()
        requests = int(self._batch_requests.total())
        batch_paths_total = int(self._batch_paths.total())
        batch_seconds_total = self._batch_seconds.total()
        wait_count = self._wait_seconds.count()
        return {
            "uptime_seconds": uptime,
            "requests_total": int(self._requests.value()),
            "paths_total": int(self._paths.value()),
            "rejected_total": int(self._rejected.value(scope="queue")),
            "rejected_graph_total": int(self._rejected.value(scope="graph")),
            "errors_total": int(self._errors.value()),
            "worker_restarts": int(self._restarts.value()),
            "crashed_requests_total": int(self._crashed.value()),
            "batches_total": batches,
            "batch_requests_total": requests,
            "batch_paths_total": batch_paths_total,
            "batch_paths_min": int(self._batch_paths.minimum()),
            "batch_paths_max": int(self._batch_paths.maximum()),
            "batch_sessions_max": int(self._batch_sessions.maximum()),
            "mean_batch_paths": (batch_paths_total / batches) if batches else 0.0,
            "mean_coalesced_requests": (requests / batches) if batches else 0.0,
            "batch_seconds_total": batch_seconds_total,
            "batch_seconds_max": self._batch_seconds.maximum(),
            "mean_batch_seconds": (batch_seconds_total / batches) if batches else 0.0,
            "wait_seconds_max": self._wait_seconds.maximum(),
            "mean_wait_seconds": (
                (self._wait_seconds.total() / wait_count) if wait_count else 0.0
            ),
            "paths_per_second": (batch_paths_total / uptime) if uptime > 0 else 0.0,
        }


class _Request:
    """One queued estimate: a path batch bound to a graph and a future."""

    __slots__ = ("graph", "paths", "future", "enqueued", "released", "trace")

    def __init__(self, graph: str, paths: list[PathLike]) -> None:
        self.graph = graph
        self.paths = paths
        self.future: "Future[object]" = Future()
        self.enqueued = time.perf_counter()
        # Whether the per-graph admission counter has been released for this
        # request (idempotence guard: crash cleanup and normal delivery can
        # both try).
        self.released = False
        # The submitting thread's active trace, carried across the queue so
        # the worker can attach wait/batch spans to the originating request.
        self.trace = tracing.current_trace()


class EstimateScheduler:
    """Coalesce point estimates into per-session ``estimate_batch`` calls.

    Parameters
    ----------
    registry:
        The session source; unknown graph names fail the affected requests
        only, never the batch.
    window_seconds:
        How long the worker keeps collecting after the first request of a
        batch arrives (the micro-batching window).  ``0`` still coalesces
        whatever is already queued, it just never *waits* for more.
    max_batch_paths:
        Path budget per batch; the worker stops collecting once reached
        (requests are never split across batches, so a batch can overshoot
        by the last request's size).
    max_pending:
        Bound of the request queue — the backpressure limit (maps to a 503
        with ``Retry-After`` at the HTTP layer: the whole service is full).
    max_pending_per_graph:
        Optional per-graph admission budget.  When set, a graph whose
        pending request count reaches it gets
        :class:`~repro.exceptions.GraphOverloadedError` (HTTP 429) even
        while the global queue has room, so one hot graph cannot starve
        every other session's slice of the queue.  ``None`` disables the
        check.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        window_seconds: float = 0.002,
        max_batch_paths: int = 512,
        max_pending: int = 4096,
        max_pending_per_graph: Optional[int] = None,
    ) -> None:
        if window_seconds < 0:
            raise ServingError("window_seconds must be >= 0")
        if max_batch_paths < 1:
            raise ServingError("max_batch_paths must be >= 1")
        if max_pending < 1:
            raise ServingError("max_pending must be >= 1")
        if max_pending_per_graph is not None and max_pending_per_graph < 1:
            raise ServingError("max_pending_per_graph must be >= 1")
        self._registry = registry
        self._window = window_seconds
        self._max_batch_paths = max_batch_paths
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_pending)
        self._closed = threading.Event()
        self._max_pending_per_graph = max_pending_per_graph
        self._pending_lock = threading.Lock()
        self._pending_per_graph: dict[str, int] = {}
        # The batch the worker is currently draining; the supervisor fails
        # its unresolved futures when the worker crashes.  Only the worker
        # thread reads or writes it, so no lock is needed.
        self._active_batch: Optional[list[_Request]] = None
        self.stats = ServiceStats()
        # Scrape-time gauge: queue depth is read live from the queue rather
        # than written on every put/get (replace-on-register makes the
        # newest scheduler the one /metrics shows).
        self._queue_gauge = Gauge(
            "repro_scheduler_queue_depth",
            "Requests currently waiting in the scheduler queue.",
        )
        self._queue_gauge.set_function(self._queue.qsize)
        self._worker = threading.Thread(
            target=self._supervise, name="repro-estimate-scheduler", daemon=True
        )
        self._worker.start()

    @property
    def registry(self) -> SessionRegistry:
        """The session registry the scheduler serves from."""
        return self._registry

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_many(
        self, graph: str, paths: Sequence[PathLike]
    ) -> "Future[object]":
        """Queue a path batch; the future resolves to a ``list[float]``.

        The batch stays one request: it is never split, and its paths all
        resolve against the same session in the same ``estimate_batch`` call.
        """
        return self._enqueue(_Request(graph, list(paths)))

    def _enqueue(self, request: _Request) -> "Future[object]":
        started = time.perf_counter()
        if self._closed.is_set():
            raise ServiceClosedError("scheduler is closed")
        budget = self._max_pending_per_graph
        if budget is not None:
            with self._pending_lock:
                pending = self._pending_per_graph.get(request.graph, 0)
                if pending >= budget:
                    self.stats.observe_graph_rejected()
                    raise GraphOverloadedError(request.graph, pending, budget)
                self._pending_per_graph[request.graph] = pending + 1
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._release(request)
            self.stats.observe_rejected()
            raise ServiceOverloadedError(
                f"request queue full ({self._queue.maxsize} pending)"
            ) from None
        if request.trace is not None:
            request.trace.add_span(
                "scheduler.enqueue",
                time.perf_counter() - started,
                graph=request.graph,
                paths=len(request.paths),
                queue_depth=self._queue.qsize(),
            )
        return request.future

    def _release(self, request: _Request) -> None:
        """Return the request's per-graph admission slot (idempotent)."""
        if self._max_pending_per_graph is None or request.released:
            return
        request.released = True
        with self._pending_lock:
            pending = self._pending_per_graph.get(request.graph, 0)
            if pending <= 1:
                self._pending_per_graph.pop(request.graph, None)
            else:
                self._pending_per_graph[request.graph] = pending - 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def worker_alive(self) -> bool:
        """Whether the supervised worker thread is running (readiness input)."""
        return self._worker.is_alive()

    @property
    def is_closed(self) -> bool:
        """Whether :meth:`close` has begun (no new work is accepted)."""
        return self._closed.is_set()

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain what was queued, join the worker."""
        if not self._closed.is_set():
            self._closed.set()
            # The sentinel lands behind every accepted request, so the
            # worker finishes real work before exiting.  put() may block
            # briefly if the queue is at capacity.
            self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)
        # A submit racing close() can slip its request in *behind* the
        # sentinel; the worker never sees it, so fail it here rather than
        # leave its future (and any awaiting coroutine) hanging forever.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is _SHUTDOWN:
                continue
            self._release(leftover)
            if leftover.future.set_running_or_notify_cancel():
                leftover.future.set_exception(
                    ServiceClosedError("scheduler closed before the request ran")
                )

    def __enter__(self) -> "EstimateScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the worker
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Run the worker loop, failing + restarting on a crash.

        Estimation errors are already mapped onto futures inside
        :meth:`_execute`; anything that escapes :meth:`_run` is a genuine
        worker crash (a bug, an injected fault, ``MemoryError``...).  The
        supervisor fails every unresolved future of the in-flight batch with
        :class:`~repro.exceptions.SchedulerCrashError` — so no caller is left
        awaiting forever — records the restart, and re-enters the loop with
        the queue intact.
        """
        while True:
            try:
                self._run()
                return
            except BaseException as exc:  # noqa: BLE001 - supervisor boundary
                batch = self._active_batch or []
                self._active_batch = None
                crashed = 0
                for request in batch:
                    self._release(request)
                    future = request.future
                    if future.done():
                        continue
                    try:
                        future.set_exception(
                            SchedulerCrashError(
                                f"scheduler worker crashed: {exc!r}; restarting"
                            )
                        )
                        crashed += 1
                    except Exception:  # noqa: BLE001 - racing resolution
                        pass
                self.stats.observe_worker_restart(crashed)
                if self._closed.is_set():
                    return

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            self._active_batch = batch
            total_paths = len(item.paths)
            deadline = time.perf_counter() + self._window
            shutdown = False
            while total_paths < self._max_batch_paths:
                try:
                    # Drain whatever is already queued without waiting...
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    # ...and only wait out the window for stragglers while
                    # the batch is still small.  Closed-loop clients (whose
                    # next request only comes after this batch answers)
                    # would otherwise pay the full window on every round
                    # with nothing to show for it.
                    if total_paths >= MIN_COALESCE_PATHS:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        extra = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if extra is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(extra)
                total_paths += len(extra.paths)
            faults.fire("scheduler.worker", requests=len(batch))
            self._execute(batch)
            self._active_batch = None
            if shutdown:
                return

    def _execute(self, batch: list[_Request]) -> None:
        """Group, estimate, observe, deliver — in that order.

        Futures are resolved only *after* the stats are updated, so a client
        that reads ``/stats`` immediately after receiving its result always
        sees its own request counted.
        """
        started = time.perf_counter()
        by_graph: dict[str, list[_Request]] = {}
        live_requests = 0
        live_paths = 0
        waits: list[float] = []
        for request in batch:
            self._release(request)
            if not request.future.set_running_or_notify_cancel():
                continue  # the caller gave up while the request was queued
            waited = started - request.enqueued
            waits.append(waited)
            if request.trace is not None:
                request.trace.add_span("scheduler.wait", waited, graph=request.graph)
            live_requests += 1
            live_paths += len(request.paths)
            by_graph.setdefault(request.graph, []).append(request)
        deliveries: list[tuple[_Request, bool, object]] = []
        for graph, requests in by_graph.items():
            deliveries.extend(self._prepare_group(graph, requests))
        if live_requests:
            self.stats.observe_batch(
                requests=live_requests,
                paths=live_paths,
                sessions=len(by_graph),
                batch_seconds=time.perf_counter() - started,
                wait_seconds=waits,
            )
        for request, succeeded, payload in deliveries:
            if succeeded:
                request.future.set_result(payload)
            else:
                request.future.set_exception(payload)  # type: ignore[arg-type]

    def _prepare_group(
        self, graph: str, requests: list[_Request]
    ) -> list[tuple[_Request, bool, object]]:
        """One session, one ``estimate_batch`` call, results split per request.

        The batch leader's trace (the first traced request in the group) is
        activated around the registry lookup and the batched estimate, so
        nested spans — ``registry.build``, the session's per-stage spans —
        attach to it; every traced request additionally gets a flat
        ``scheduler.estimate_batch`` span covering the shared group work.
        """
        leader = next((r.trace for r in requests if r.trace is not None), None)
        group_started = time.perf_counter()

        def group_spans() -> None:
            group_seconds = time.perf_counter() - group_started
            for request in requests:
                if request.trace is not None:
                    request.trace.add_span(
                        "scheduler.estimate_batch",
                        group_seconds,
                        graph=graph,
                        coalesced_requests=len(requests),
                    )

        try:
            with tracing.activate(leader):
                session = self._registry.get(graph)
        except Exception as exc:  # noqa: BLE001 - every failure maps to futures
            self.stats.observe_error(len(requests))
            group_spans()
            return [(request, False, exc) for request in requests]
        paths: list[PathLike] = []
        for request in requests:
            paths.extend(request.paths)
        try:
            with tracing.activate(leader):
                estimates = session.estimate_batch(paths)
        except Exception:
            # One bad path must not fail its batch neighbours: retry each
            # request on its own so only the offender sees the error.
            return self._prepare_individually(session, requests)
        finally:
            group_spans()
        values = estimates.tolist()  # one C-level conversion for the whole batch
        deliveries: list[tuple[_Request, bool, object]] = []
        offset = 0
        for request in requests:
            count = len(request.paths)
            deliveries.append((request, True, values[offset : offset + count]))
            offset += count
        return deliveries

    def _prepare_individually(
        self, session, requests: list[_Request]
    ) -> list[tuple[_Request, bool, object]]:
        deliveries: list[tuple[_Request, bool, object]] = []
        for request in requests:
            try:
                estimates = session.estimate_batch(request.paths)
            except Exception as exc:  # noqa: BLE001
                self.stats.observe_error()
                deliveries.append((request, False, exc))
                continue
            deliveries.append((request, True, estimates.tolist()))
        return deliveries

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<EstimateScheduler window={self._window * 1000:.1f}ms "
            f"max_batch={self._max_batch_paths} pending={self._queue.qsize()}>"
        )
