"""Tiny stdlib client for the serving endpoint, with bounded retries.

Wraps :mod:`urllib.request` so the CLI (``repro client``), the CI smoke
test and the benchmarks can drive a running ``repro serve`` without any
HTTP dependency.  Every method returns the decoded JSON document.  API
methods speak the versioned ``/v1/`` routes; only the operational probes
(``/healthz``) stay unversioned, matching the server.

Transient failures — 429 (per-graph admission), 503 (backpressure, open
circuit, closing), 504 (batch deadline) and connection errors — are retried
through the shared :class:`repro.retry.RetryPolicy` core (exponential
backoff with *full jitter*; a server ``Retry-After`` hint — sent on every
backpressure rejection — honoured as a lower bound).  An optional per-call
deadline caps the whole attempt sequence: per-attempt timeouts shrink to
the remaining budget and the client gives up early rather than schedule a
pause it cannot afford.
Exhausted retries and non-retryable statuses raise
:class:`~repro.exceptions.ServiceRequestError` carrying the final status,
the server's retry hint, the attempt count, the request id, and — when the
server answered with the v1 error envelope — its machine-readable ``code``
and the full parsed ``envelope`` document.

Every logical call carries a fresh ``X-Request-Id`` (a uuid4 hex) that the
server echoes into its spans, JSON logs and ``/traces`` buffer, so one
client-side id correlates the whole server-side path of a request.  With
``verbose=True`` the client narrates each attempt — request id, status,
per-attempt latency, backoff pauses — to ``sys.stderr``.
"""

from __future__ import annotations

import http.client
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional, Sequence

from repro.exceptions import ServiceRequestError
from repro.obs.tracing import new_request_id
from repro.retry import RetryPolicy, parse_retry_after
from repro.serving.http import API_PREFIX

__all__ = ["ServiceClient"]

#: HTTP statuses worth retrying: admission/backpressure rejections and
#: batch timeouts.  Everything else (400, 404, 413...) is the caller's bug.
RETRYABLE_STATUSES = frozenset({429, 503, 504})


class ServiceClient:
    """A blocking JSON client bound to one service base URL.

    Parameters
    ----------
    base_url:
        The service root, e.g. ``"http://127.0.0.1:8080"``.
    timeout:
        Per-attempt socket timeout in seconds.
    max_retries:
        How many *re*-tries follow the first attempt (``0`` disables
        retrying entirely).
    backoff_seconds / backoff_max_seconds:
        Exponential backoff base and cap; the actual pause is drawn
        uniformly from ``[0, min(cap, base * 2**attempt))`` (full jitter)
        and then raised to any server ``Retry-After`` hint.
    deadline_seconds:
        Default budget for one logical call including every retry and
        pause; ``None`` means attempts alone bound the call.  Individual
        calls may override via their ``deadline_seconds`` argument.
    verbose:
        When true, narrate every attempt (request id, status, per-attempt
        latency, pauses) to ``sys.stderr``.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        backoff_max_seconds: float = 2.0,
        deadline_seconds: Optional[float] = None,
        verbose: bool = False,
    ) -> None:
        if timeout <= 0:
            raise ServiceRequestError("timeout must be > 0")
        if max_retries < 0:
            raise ServiceRequestError("max_retries must be >= 0")
        if backoff_seconds < 0 or backoff_max_seconds < 0:
            raise ServiceRequestError("backoff seconds must be >= 0")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ServiceRequestError("deadline_seconds must be > 0")
        self._base_url = base_url.rstrip("/")
        self._timeout = timeout
        self._max_retries = max_retries
        self._policy = RetryPolicy(
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            backoff_max_seconds=backoff_max_seconds,
            deadline_seconds=deadline_seconds,
        )
        self._verbose = verbose
        self.last_request_id: Optional[str] = None
        self.last_attempts: int = 0
        self.last_attempt_seconds: list[float] = []

    def _narrate(self, message: str) -> None:
        """Print one verbose progress line to stderr (no-op otherwise)."""
        if self._verbose:
            print(f"[client] {message}", file=sys.stderr)

    @property
    def base_url(self) -> str:
        """The service base URL (no trailing slash)."""
        return self._base_url

    def _request(
        self,
        route: str,
        payload: Optional[dict] = None,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> dict:
        url = f"{self._base_url}{route}"
        data = None
        request_id = new_request_id()
        headers = {"Accept": "application/json", "X-Request-Id": request_id}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        state = self._policy.start(deadline_seconds=deadline_seconds)
        self.last_request_id = request_id
        self.last_attempts = 0
        self.last_attempt_seconds = []
        error: Optional[ServiceRequestError] = None
        while True:
            timeout = state.begin_attempt(self._timeout)
            if timeout is None:
                # The budget ran out between attempts: report the deadline,
                # but keep the last attempt's status, code, hint and message.
                message = (
                    f"{route}: deadline of {state.deadline:.3f}s exhausted "
                    f"after {state.attempts} attempt(s)"
                )
                if error is not None:
                    message += f"; last: {error}"
                raise ServiceRequestError(
                    message,
                    status=getattr(error, "status", None),
                    retry_after=getattr(error, "retry_after", None),
                    attempts=state.attempts,
                    request_id=request_id,
                    code=getattr(error, "code", None),
                    envelope=getattr(error, "envelope", None),
                )
            attempt = state.attempts
            self.last_attempts = attempt
            request = urllib.request.Request(url, data=data, headers=headers)
            retry_after: Optional[float] = None
            attempt_started = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=timeout) as response:
                    document = json.loads(response.read().decode("utf-8"))
                elapsed = time.perf_counter() - attempt_started
                self.last_attempt_seconds.append(elapsed)
                self._narrate(
                    f"{route} ok request_id={request_id} attempt={attempt} "
                    f"seconds={elapsed:.4f}"
                )
                return document
            except urllib.error.HTTPError as exc:
                self.last_attempt_seconds.append(time.perf_counter() - attempt_started)
                retry_after = parse_retry_after(exc.headers.get("Retry-After"))
                envelope: Optional[dict] = None
                code: Optional[str] = None
                try:
                    document = json.loads(exc.read().decode("utf-8"))
                    message = str(document.get("error", exc))
                    if isinstance(document, dict):
                        envelope = document
                        code = document.get("code")
                except (ValueError, UnicodeDecodeError):
                    message = str(exc)
                error = ServiceRequestError(
                    f"{route} -> HTTP {exc.code}: {message}",
                    status=exc.code,
                    retry_after=retry_after,
                    attempts=attempt,
                    request_id=request_id,
                    code=code,
                    envelope=envelope,
                )
                self._narrate(
                    f"{route} HTTP {exc.code} request_id={request_id} "
                    f"attempt={attempt} seconds={self.last_attempt_seconds[-1]:.4f}"
                )
                if exc.code not in RETRYABLE_STATUSES:
                    raise error from None
            except (
                urllib.error.URLError,
                TimeoutError,
                ConnectionError,
                http.client.HTTPException,
            ) as exc:
                # URLError wraps connect-time failures only; a reset or
                # truncated response *mid-read* surfaces as a raw
                # ConnectionError / HTTPException (RemoteDisconnected,
                # IncompleteRead...) and is just as retryable.
                self.last_attempt_seconds.append(time.perf_counter() - attempt_started)
                reason = getattr(exc, "reason", exc)
                error = ServiceRequestError(
                    f"cannot reach {url}: {reason}",
                    attempts=attempt,
                    request_id=request_id,
                )
                self._narrate(
                    f"{route} unreachable ({reason}) request_id={request_id} "
                    f"attempt={attempt}"
                )
            except (ValueError, json.JSONDecodeError) as exc:
                self.last_attempt_seconds.append(time.perf_counter() - attempt_started)
                raise ServiceRequestError(
                    f"invalid JSON from {url}: {exc}",
                    attempts=attempt,
                    request_id=request_id,
                ) from None
            pause = state.next_pause(retry_after=retry_after)
            if pause is None:
                # Retry budget spent, or the pause alone would blow the
                # deadline: surface the last failure now instead of sleeping
                # into a guaranteed timeout.
                raise error from None
            self._narrate(f"{route} retrying in {pause:.3f}s (attempt {attempt + 1})")
            if pause > 0:
                time.sleep(pause)

    # ------------------------------------------------------------------
    # the endpoint surface
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness document (``status`` + registered graph names)."""
        return self._request("/healthz")

    def stats(self) -> dict:
        """Scheduler + registry counters."""
        return self._request(f"{API_PREFIX}/stats")

    def graphs(self) -> list[dict]:
        """One row per registered graph."""
        return self._request(f"{API_PREFIX}/graphs")["graphs"]

    def estimate(
        self,
        graph: str,
        paths: Sequence[str],
        *,
        deadline_seconds: Optional[float] = None,
    ) -> list[float]:
        """Estimates for ``paths`` on ``graph`` (one request, one batch).

        ``deadline_seconds`` caps the whole call — every retry and backoff
        pause included — overriding the client-wide default.
        """
        document = self._request(
            f"{API_PREFIX}/estimate",
            {"graph": graph, "paths": list(paths)},
            deadline_seconds=deadline_seconds,
        )
        return [float(value) for value in document["estimates"]]

    def warm(self, graph: str) -> dict:
        """Build ``graph``'s session now; returns the build stats row."""
        return self._request(f"{API_PREFIX}/warm", {"graph": graph})["stats"]

    def evict(self, graph: str) -> bool:
        """Drop ``graph``'s built session; returns whether one was resident."""
        return bool(
            self._request(f"{API_PREFIX}/evict", {"graph": graph})["evicted"]
        )

    def update(
        self,
        graph: str,
        *,
        add: Sequence[Sequence[object]] = (),
        remove: Sequence[Sequence[object]] = (),
        deadline_seconds: Optional[float] = None,
    ) -> dict:
        """Apply an edge delta to ``graph`` (incremental catalog rebuild).

        ``add`` / ``remove`` are ``(source, label, target)`` triples; returns
        the server's update row (affected subtree counts, new digest, ...).
        ``deadline_seconds`` caps the call like in :meth:`estimate`.
        """
        return self._request(
            f"{API_PREFIX}/update",
            {"graph": graph, "add": [list(t) for t in add], "remove": [list(t) for t in remove]},
            deadline_seconds=deadline_seconds,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<ServiceClient {self._base_url!r} retries={self._max_retries}>"
