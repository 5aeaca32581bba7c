"""The HTTP scaffold both servers share: one wire behaviour, two route sets.

``repro serve`` (:mod:`repro.serving.http`) and ``repro artifact-server``
(:mod:`repro.serving.artifacts`) subclass the two classes here and keep
only their routes, counters, ``server_version`` and probe bodies.  What
goes on the wire is decided once:

* HTTP/1.1 keep-alive with ``TCP_NODELAY`` and a buffered response: the
  headers and the body leave in the one write of the per-request flush,
  instead of two sends whose second waits out the client's delayed ACK
  (~40 ms on every keep-alive request);
* the request id: the client's ``X-Request-Id`` when present, minted
  otherwise, echoed on every response;
* every non-2xx answer carries one JSON envelope::

      {"error": <human message>, "code": <machine code>,
       "retry_after": <seconds or null>, "request_id": <echoed/minted id>}

  with ``Retry-After`` in decimal seconds (an internal convention; standard
  HTTP allows only whole seconds or a date) — protocol errors such as a
  malformed request line included, which also close the connection;
* request bodies: 400 for a bad ``Content-Length``, 413 (and a closed
  connection, since the unread body desyncs the stream) over the server's
  ``max_body_bytes``;
* one fault barrier: what a route raises is answered from the handler's
  :attr:`ServingHandler.errors` table, or as a 500 ``internal`` logged
  with its traceback — never a dropped connection;
* no stdlib access log: ``repro serve`` logs one structured trace line per
  request instead;
* ``GET /metrics``: the Prometheus text exposition of the server's metrics
  registry;
* the lifecycle: :meth:`ServingHTTPServer.serve_until_signalled`.
"""

from __future__ import annotations

import json
import logging
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple, Optional, Union

from repro.exceptions import ServingError
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry

__all__ = ["ErrorRow", "ServingHTTPServer", "ServingHandler"]

_logger = logging.getLogger("repro.serving")

#: Machine-readable envelope code per status, for call sites that do not
#: name a more specific one.
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    413: "body_too_large",
    429: "graph_overloaded",
    500: "internal",
    503: "unavailable",
    504: "timeout",
}


class ErrorRow(NamedTuple):
    """How the fault barrier answers the exceptions of one or more classes.

    ``retry_after`` is the hint in seconds or a function of the exception;
    ``message`` replaces ``str(exc)`` as the envelope's ``error``.
    """

    raised: Union[type[Exception], tuple[type[Exception], ...]]
    status: int
    code: str
    retry_after: Union[float, Callable[[Exception], float], None] = None
    message: Optional[str] = None


class ServingHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server base: handler threads, backlog, metrics, body cap."""

    daemon_threads = True
    # Default accept backlog is 5: a burst of concurrent clients gets
    # connection resets before the handler can even answer 503.  Queue the
    # connections instead — backpressure belongs to the application, which
    # answers with a retryable status rather than a dropped socket.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        handler: type["ServingHandler"],
        *,
        max_body_bytes: int,
        metrics: MetricsRegistry,
        bind_and_activate: bool = True,
    ) -> None:
        if max_body_bytes < 1:
            raise ServingError("max_body_bytes must be >= 1")
        self.max_body_bytes = max_body_bytes
        self.metrics = metrics
        super().__init__(address, handler, bind_and_activate)

    def begin_drain(self) -> None:
        """Flip readiness ahead of shutdown (this base has none to flip)."""

    def close(self) -> None:
        """Release the listening socket."""
        self.server_close()

    def serve_until_signalled(self) -> None:
        """Serve until SIGTERM or SIGINT, then :meth:`close`.

        The signal handler says so on stderr, calls :meth:`begin_drain`
        while the accept loop still runs, and stops the loop from a side
        thread: ``shutdown()`` on this thread, the one blocked in
        ``serve_forever``, would deadlock.
        """

        def stop(signum: int, frame: object) -> None:
            print(f"signal {signum}: draining before shutdown", file=sys.stderr, flush=True)
            self.begin_drain()
            threading.Thread(target=self.shutdown, daemon=True).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, stop)
        try:
            self.serve_forever()
        finally:
            self.close()


class ServingHandler(BaseHTTPRequestHandler):
    """Request handler base: request ids, senders, the error envelope, bodies."""

    server: ServingHTTPServer  # narrowed for attribute access
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    #: The fault barrier's table: the first row whose ``raised`` matches
    #: answers, so subclasses come first; no match is a 500 ``internal``.
    errors: tuple[ErrorRow, ...] = ()

    #: Filled per request by :meth:`_begin_request`; the defaults keep the
    #: error paths that run before it (malformed request lines) safe.
    _request_id = ""
    _status = 0

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Write no stdlib access-log line (the trace log is the access log)."""

    def _begin_request(self) -> None:
        """Take the client's ``X-Request-Id`` (or mint one); reset the status."""
        rid = (self.headers.get("X-Request-Id") or "").strip()
        self._request_id = rid if rid else tracing.new_request_id()
        self._status = 0

    def _answer_fault(self, exc: Exception) -> None:
        """The fault barrier, called from the per-request ``except`` clause.

        An answer already under way (the client hung up mid-write) cannot
        be sent twice: re-raise, and the stdlib server drops the connection.
        """
        if self._status:
            raise
        for row in self.errors:
            if isinstance(exc, row.raised):
                hint = row.retry_after(exc) if callable(row.retry_after) else row.retry_after
                message = row.message or str(exc)
                self._send_error_json(row.status, message, code=row.code, retry_after=hint)
                return
        _logger.error("internal error answering %s %s", self.command, self.path, exc_info=exc)
        self._send_error_json(500, f"internal error: {exc!r}")

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict[str, str]] = None,
        *,
        head: bool = False,
    ) -> None:
        """Answer ``status`` with ``body`` (its headers only when ``head``)."""
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id:
            self.send_header("X-Request-Id", self._request_id)
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        if not head:
            self.wfile.write(body)

    def _send_json(self, status: int, document: object) -> None:
        self._send(status, json.dumps(document).encode("utf-8"), "application/json")

    def _send_error_json(
        self,
        status: int,
        message: str,
        *,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
        extra: Optional[dict[str, object]] = None,
    ) -> None:
        """Answer a non-2xx with the uniform error envelope.

        The body always carries the four envelope fields, so clients can
        branch on ``code`` without sniffing status-specific shapes;
        ``extra`` merges additional context (e.g. the readiness checks)
        without displacing them.
        """
        envelope: dict[str, object] = {
            "error": message,
            "code": code or _DEFAULT_CODES.get(status, "error"),
            "retry_after": retry_after,
            "request_id": self._request_id,
        }
        if extra:
            envelope.update(extra)
        self._send(
            status,
            json.dumps(envelope).encode("utf-8"),
            "application/json",
            # Decimal seconds: sub-second hints matter at micro-batching
            # timescales, and the stack's clients parse them.
            {"Retry-After": f"{retry_after:.3f}"} if retry_after is not None else None,
        )

    def send_error(  # noqa: D102 - BaseHTTPRequestHandler API
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        # Protocol-level failures (malformed request line, unsupported
        # method) otherwise answer with the stdlib HTML error page; route
        # them through the envelope so *every* non-2xx is uniform.
        self.close_connection = True
        try:
            self._send_error_json(code, message or str(explain or "request failed"))
        except OSError:  # pragma: no cover - peer already gone
            pass

    def _read_body(self, *, required: bool) -> Optional[bytes]:
        """The request body, or ``None`` once an error has been answered.

        A missing ``Content-Length`` reads as an empty body unless
        ``required``.  A length over ``max_body_bytes`` is refused without
        reading; the unread body desyncs the keep-alive stream, so the
        connection is dropped after answering.
        """
        try:
            length = int(self.headers.get("Content-Length", "-1" if required else "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_error_json(400, "missing or invalid Content-Length")
            return None
        limit = self.server.max_body_bytes
        if length > limit:
            self.close_connection = True
            self._send_error_json(
                413, f"request body of {length} bytes exceeds limit of {limit} bytes"
            )
            return None
        body = self.rfile.read(length) if length else b""
        if len(body) != length:
            self.close_connection = True
            self._send_error_json(400, f"body truncated: got {len(body)} of {length} bytes")
            return None
        return body

    def _send_metrics(self) -> None:
        """Answer ``GET /metrics`` with the server's Prometheus exposition."""
        self._send(
            200,
            self.server.metrics.render().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )
