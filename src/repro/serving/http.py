"""Stdlib JSON HTTP endpoint over the registry + scheduler.

No framework, no dependencies: a threading HTTP server whose handler
threads submit into the shared micro-batching scheduler and block on their
futures.  Because coalescing happens in the scheduler, N concurrent HTTP
clients asking for one path each still produce one ``estimate_batch`` call
per window.  The wire behaviour — keep-alive, request ids, the error
envelope, the body cap, ``/metrics`` — is the scaffold in
:mod:`repro.serving.base`, shared with the artifact server; this module
holds only the routes.

Routes
------
The API surface is versioned under ``/v1/`` (see ``docs/API.md``); the
operational probes stay unversioned:

``GET  /healthz``       liveness + registered graph names (+ drain flag)
``GET  /readyz``        readiness checks — 503 once draining or worker dead
``GET  /metrics``       Prometheus text exposition of the metrics registry
``GET  /traces``        slowest + most recent finished request traces
``GET  /v1/stats``      scheduler + registry counters (JSON)
``GET  /v1/graphs``     one row per registered graph (built?, domain, config)
``POST /v1/estimate``   ``{"graph": g, "paths": [...]}`` (or ``"path": "1/2"``)
``POST /v1/warm``       ``{"graph": g}`` — build now, return build stats
``POST /v1/evict``      ``{"graph": g}`` — drop the built session from memory
``POST /v1/update``     ``{"graph": g, "add": [[s,l,t],...], "remove":
                        [...]}`` — apply an edge delta and swap the session

The unversioned spellings (``/estimate``, ``/warm``, ``/evict``,
``/update``, ``/stats``, ``/graphs``) served as deprecated aliases for one
release and are now **removed**: they answer with the 404 error envelope
(``code="not_found"``) pointing at the ``/v1`` spelling.  Requests still
arriving on them are counted in ``repro_http_deprecated_requests_total``
— the series stays registered so dashboards watching the migration keep
working and a straggler client is visible, not silent.

Observability
-------------
Every request runs under a :class:`~repro.obs.tracing.Trace`: the id is
taken from the client's ``X-Request-Id`` header when present (minted
otherwise), echoed back on the response, propagated through the scheduler
into the registry/session spans, logged as one structured line when
``repro serve --log-json`` is on, and retained for ``GET /traces``.
Request counts and latency feed ``repro_http_requests_total`` /
``repro_http_request_seconds`` in the shared metrics registry.

Error mapping
-------------
Every non-2xx response carries the envelope of :mod:`repro.serving.base`.
A route answers its own request-shape errors (bad JSON, a missing
``graph``, bad ``paths``, an empty or invalid delta: 400 ``bad_request``),
the scaffold unknown routes (404 ``not_found``) and oversized bodies (413
``body_too_large``).  Whatever a route *raises* is answered from one
table, ``_ERRORS``, the same on every route, first match wins:

===================================================  ==========================
raised                                               response (``code``)
===================================================  ==========================
``GraphOverloadedError``                             429 (``graph_overloaded``)
``CircuitOpenError``                                 503 (``circuit_open``)
``ServiceOverloadedError``, ``ServiceClosedError``,  503 (``unavailable``)
``SchedulerCrashError``
``UnknownGraphError``                                404 (``unknown_graph``)
``concurrent.futures.TimeoutError``                  504 (``timeout``)
``ReproError``, ``KeyError``                         400 (``bad_request``)
any route, unexpected fault                          500 (``internal``), logged
===================================================  ==========================

The 429 and 503 rows carry ``Retry-After``: :data:`RETRY_AFTER_SECONDS`,
or the open circuit's own hint.  429 means *this graph* is over its
admission budget — other graphs are still being served, retry against the
same server after the hint.  503 means the *whole service* cannot take the
request right now (shared queue full, graph circuit open, shutting down) —
retry later or elsewhere.  :class:`~repro.serving.client.ServiceClient`
honours the decimal ``Retry-After`` as a lower bound on its backoff pause.

On SIGTERM/SIGINT :meth:`~repro.serving.base.ServingHTTPServer.serve_until_signalled`
calls :meth:`EstimationHTTPServer.close`, which drains gracefully: stop
accepting connections, finish the scheduler's queue, give in-flight
handlers a bounded window to answer, then close.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Iterator, Optional

from repro.exceptions import (
    CircuitOpenError,
    GraphOverloadedError,
    ReproError,
    SchedulerCrashError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
    UnknownGraphError,
)
from repro.graph.delta import GraphDelta
from repro.obs import tracing
from repro.obs.health import HealthState
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.tracing import Trace, TraceStore
from repro.serving.base import ErrorRow, ServingHandler, ServingHTTPServer
from repro.serving.registry import SessionRegistry
from repro.serving.scheduler import EstimateScheduler

__all__ = ["API_PREFIX", "EstimationHTTPServer", "make_server"]

#: The versioned prefix of the API surface.
API_PREFIX = "/v1"

#: Seconds a handler waits for its estimate before answering 504.
REQUEST_TIMEOUT_SECONDS = 30.0

#: The ``Retry-After`` hint, in seconds, on 429 and 503 backpressure answers.
RETRY_AFTER_SECONDS = 0.05

#: The fault barrier's table (see "Error mapping" above).  Subclasses come
#: first: ``UnknownGraphError`` is both a ``ReproError`` and a ``KeyError``
#: (the engine raises unknown labels as ``KeyError`` subclasses).
_ERRORS = (
    ErrorRow(GraphOverloadedError, 429, "graph_overloaded", RETRY_AFTER_SECONDS),
    ErrorRow(CircuitOpenError, 503, "circuit_open", lambda exc: exc.retry_after),
    ErrorRow(
        (ServiceOverloadedError, ServiceClosedError, SchedulerCrashError),
        503,
        "unavailable",
        RETRY_AFTER_SECONDS,
    ),
    ErrorRow(UnknownGraphError, 404, "unknown_graph"),
    ErrorRow(
        FutureTimeoutError,
        504,
        "timeout",
        message=f"estimate timed out after {REQUEST_TIMEOUT_SECONDS}s",
    ),
    ErrorRow((ReproError, KeyError), 400, "bad_request"),
)

#: The API routes that live under :data:`API_PREFIX`.  Their unversioned
#: spellings were removed after one deprecation release: they now 404 (and
#: are counted, so a straggler client shows up on dashboards).
_API_ROUTES = frozenset({"/stats", "/graphs", "/estimate", "/warm", "/evict", "/update"})

#: Observability endpoints are not themselves recorded as traces — a
#: scraper polling ``/metrics`` every second would crowd real requests
#: out of the recent-traces window.
_UNTRACED_ROUTES = frozenset({"/healthz", "/readyz", "/metrics", "/traces"})

#: Routes whose (normalized, unversioned) names may appear as a metric
#: label; anything else is collapsed into ``other`` so a URL-scanning
#: client cannot explode the label cardinality.
_KNOWN_ROUTES = _UNTRACED_ROUTES | _API_ROUTES


class EstimationHTTPServer(ServingHTTPServer):
    """A threading HTTP server owning the scheduler it serves through."""

    def __init__(
        self,
        address: tuple[str, int],
        registry: SessionRegistry,
        scheduler: EstimateScheduler,
        *,
        max_body_bytes: int = 8 * 2**20,
        metrics: Optional[MetricsRegistry] = None,
        inherited_socket: Optional[socket.socket] = None,
    ) -> None:
        self.registry = registry
        self.scheduler = scheduler
        self._serving = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        metrics = metrics if metrics is not None else default_registry()
        self.traces = TraceStore()
        self.health = HealthState()
        self.health.add_check("scheduler_worker_alive", scheduler.worker_alive)
        self.health.add_check("scheduler_accepting", lambda: not scheduler.is_closed)
        self._http_requests = Counter(
            "repro_http_requests_total",
            "HTTP requests answered, by route, method and status.",
            labelnames=("route", "method", "status"),
            registry=metrics,
        )
        self._http_seconds = Histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency at the HTTP layer, by route.",
            buckets=LATENCY_BUCKETS,
            labelnames=("route",),
            registry=metrics,
        )
        self._http_deprecated = Counter(
            "repro_http_deprecated_requests_total",
            "Requests answered on a deprecated unversioned alias, by route.",
            labelnames=("route",),
            registry=metrics,
        )
        super().__init__(
            address,
            _Handler,
            max_body_bytes=max_body_bytes,
            metrics=metrics,
            bind_and_activate=inherited_socket is None,
        )
        if inherited_socket is not None:
            # Pre-fork worker: adopt a socket that was bound (and is already
            # listening) before the fork instead of binding a fresh one.
            # ``bind_and_activate=False`` still creates an unused socket
            # object; swap it out before anything touches it.
            self.socket.close()
            self.socket = inherited_socket
            self.server_address = inherited_socket.getsockname()
            # ``server_bind`` never ran, so fill the handler-facing fields
            # it would have set (skip its ``getfqdn`` reverse lookup).
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
            self.server_activate()

    def observe_http(self, *, route: str, method: str, status: int, seconds: float) -> None:
        """Feed one answered request into the HTTP metrics."""
        self._http_requests.inc(route=route, method=method, status=status)
        self._http_seconds.observe(seconds, route=route)

    def observe_deprecated(self, *, route: str) -> None:
        """Count one request answered on a deprecated unversioned alias."""
        self._http_deprecated.inc(route=route)

    def begin_drain(self) -> None:
        """Flip readiness to *unready* ahead of a graceful shutdown.

        Called by the signal handler of :meth:`serve_until_signalled` (and
        by :meth:`close` itself) *before* the accept loop stops, so a load
        balancer scraping ``/readyz`` sees the drain and steers traffic
        away while requests are still being answered.
        """
        self.health.begin_drain()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`shutdown`, tracking that the loop is live.

        The flag lets :meth:`close` know whether calling ``shutdown()`` is
        safe: ``BaseServer.shutdown`` blocks forever when ``serve_forever``
        never ran (its completion event starts unset).
        """
        self._serving = True
        try:
            super().serve_forever(poll_interval=poll_interval)
        finally:
            self._serving = False

    @contextmanager
    def track_request(self) -> Iterator[None]:
        """Count one in-flight handler for the graceful-drain window."""
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def close(self, drain_seconds: float = 5.0) -> None:
        """Graceful shutdown: stop accepts, drain work, answer, then close.

        Ordering matters: stop the accept loop first (no new requests),
        drain the scheduler's queue (every accepted estimate resolves its
        future), wait up to ``drain_seconds`` for in-flight handler threads
        to write their responses (``daemon_threads`` means ``server_close``
        would otherwise abandon them mid-write), and only then release the
        socket.
        """
        self.begin_drain()
        if self._serving:
            self.shutdown()
        self.scheduler.close()
        deadline = time.monotonic() + drain_seconds
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.01)
        self.server_close()


class _Handler(ServingHandler):
    server: EstimationHTTPServer  # narrowed for attribute access
    server_version = "repro-serve/1.0"
    errors = _ERRORS

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _normalized_path(self) -> str:
        """``self.path`` with the ``/v1`` prefix stripped for dispatch."""
        path = self.path
        if path == API_PREFIX:
            return "/"
        if path.startswith(API_PREFIX + "/"):
            return path[len(API_PREFIX) :]
        return path

    def _observe(self, method: str, route_fn: "Callable[[], None]") -> None:
        """Run one routed request under a trace, then feed the HTTP metrics.

        The request id comes from the client's ``X-Request-Id`` header when
        present (so client and server logs correlate) and is echoed on the
        response either way.  The trace is active for the whole handler, so
        the scheduler submit path captures it into the queued request and
        the worker's spans land here.  Whatever the route raises is answered
        by the fault barrier (:attr:`errors`).
        """
        self._begin_request()
        normalized = self._normalized_path()
        route = normalized if normalized in _KNOWN_ROUTES else "other"
        traced = tracing.tracing_enabled()
        trace = Trace(self._request_id, route=f"{method} {self.path}") if traced else None
        started = time.perf_counter()
        try:
            if trace is None:
                route_fn()
            else:
                with tracing.activate(trace):
                    route_fn()
        except Exception as exc:  # noqa: BLE001 - the fault barrier
            self._answer_fault(exc)
        finally:
            elapsed = time.perf_counter() - started
            self.server.observe_http(
                route=route, method=method, status=self._status, seconds=elapsed
            )
            if trace is not None:
                trace.finish(self._status if self._status else None)
                if normalized not in _UNTRACED_ROUTES:
                    self.server.traces.record(trace)
                    tracing.emit_trace(trace)

    def _read_json(self) -> Optional[dict[str, object]]:
        raw = self._read_body(required=False)
        if raw is None:
            return None
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._send_error_json(400, "JSON body must be an object")
            return None
        return document

    def _graph_name(self, document: dict[str, object]) -> Optional[str]:
        name = document.get("graph")
        if not isinstance(name, str) or not name:
            self._send_error_json(400, 'missing "graph" (string) field')
            return None
        return name

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Route GET requests: health/readiness, metrics, traces, stats."""
        with self.server.track_request():
            self._observe("GET", self._route_get)

    def _reject_removed_alias(self, route: str) -> bool:
        """404 an unversioned spelling of an API route; whether it answered.

        The aliases were removed after their deprecation release.  The
        rejection is still counted into the deprecated-requests series, so
        a straggler client shows up on the same dashboard that watched the
        migration instead of vanishing into generic 404 noise.
        """
        if route not in _API_ROUTES or self.path.startswith(API_PREFIX):
            return False
        self.server.observe_deprecated(route=route)
        self._send_error_json(
            404, f"unversioned route {route} was removed; use {API_PREFIX}{route}"
        )
        return True

    def _route_get(self) -> None:
        route = self._normalized_path()
        if self._reject_removed_alias(route):
            return
        if route == "/healthz":
            draining = self.server.health.draining
            self._send_json(
                200,
                {
                    "status": "draining" if draining else "ok",
                    "draining": draining,
                    "graphs": list(self.server.registry.names()),
                },
            )
        elif route == "/readyz":
            ready, _ = self.server.health.readiness()
            if ready:
                self._send_json(200, self.server.health.as_row())
            else:
                self._send_error_json(
                    503,
                    "not ready",
                    code="not_ready",
                    extra=self.server.health.as_row(),
                )
        elif route == "/metrics":
            self._send_metrics()
        elif route == "/traces":
            self._send_json(200, self.server.traces.snapshot())
        elif route == "/stats":
            self._send_json(
                200,
                {
                    "scheduler": self.server.scheduler.stats.snapshot(),
                    "registry": self.server.registry.as_row(),
                },
            )
        elif route == "/graphs":
            self._send_json(200, {"graphs": self.server.registry.describe()})
        else:
            self._send_error_json(404, f"no such route: {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Route POST requests: ``/estimate``, ``/warm``, ``/evict``, ...."""
        with self.server.track_request():
            self._observe("POST", self._route_post)

    def _route_post(self) -> None:
        document = self._read_json()
        if document is None:
            return
        route = self._normalized_path()
        if self._reject_removed_alias(route):
            return
        if route == "/estimate":
            self._handle_estimate(document)
        elif route == "/warm":
            self._handle_warm(document)
        elif route == "/evict":
            self._handle_evict(document)
        elif route == "/update":
            self._handle_update(document)
        else:
            self._send_error_json(404, f"no such route: {self.path}")

    def _handle_estimate(self, document: dict[str, object]) -> None:
        graph = self._graph_name(document)
        if graph is None:
            return
        paths = document.get("paths")
        if paths is None and "path" in document:
            paths = [document["path"]]
        if (
            not isinstance(paths, list)
            or not paths
            or not all(isinstance(path, str) and path for path in paths)
        ):
            self._send_error_json(
                400, 'need "paths" (non-empty list of strings) or "path"'
            )
            return
        future = self.server.scheduler.submit_many(graph, paths)
        estimates = future.result(timeout=REQUEST_TIMEOUT_SECONDS)
        self._send_json(
            200,
            {"graph": graph, "count": len(estimates), "estimates": estimates},
        )

    def _handle_warm(self, document: dict[str, object]) -> None:
        graph = self._graph_name(document)
        if graph is None:
            return
        session = self.server.registry.get(graph)
        self._send_json(200, {"graph": graph, "stats": session.stats.as_row()})

    def _handle_update(self, document: dict[str, object]) -> None:
        graph = self._graph_name(document)
        if graph is None:
            return
        try:
            delta = GraphDelta.from_dict(document)
        except ReproError as exc:
            self._send_error_json(400, f"invalid delta: {exc}")
            return
        if not delta:
            self._send_error_json(400, 'delta needs "add" and/or "remove" triples')
            return
        self._send_json(200, self.server.registry.update_graph(graph, delta))

    def _handle_evict(self, document: dict[str, object]) -> None:
        graph = self._graph_name(document)
        if graph is None:
            return
        evicted = self.server.registry.evict(graph)
        self._send_json(200, {"graph": graph, "evicted": evicted})


def make_server(
    registry: SessionRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    window_seconds: float = 0.002,
    max_batch_paths: int = 512,
    max_pending: int = 4096,
    max_pending_per_graph: Optional[int] = None,
    max_body_bytes: int = 8 * 2**20,
    metrics: Optional[MetricsRegistry] = None,
    inherited_socket: Optional[socket.socket] = None,
) -> EstimationHTTPServer:
    """Build a ready-to-run server (call ``serve_forever`` / ``close``).

    The scheduler is created here so the CLI and tests share one
    construction path; pass ``port=0`` to bind an ephemeral port (read it
    back from ``server.server_address``).  Pre-fork workers pass
    ``inherited_socket`` — a socket bound and listening before the fork —
    and the server adopts it instead of binding ``host:port`` itself.
    """
    scheduler = EstimateScheduler(
        registry,
        window_seconds=window_seconds,
        max_batch_paths=max_batch_paths,
        max_pending=max_pending,
        max_pending_per_graph=max_pending_per_graph,
    )
    try:
        return EstimationHTTPServer(
            (host, port),
            registry,
            scheduler,
            max_body_bytes=max_body_bytes,
            metrics=metrics,
            inherited_socket=inherited_socket,
        )
    except (OSError, ServingError):
        scheduler.close()
        raise
