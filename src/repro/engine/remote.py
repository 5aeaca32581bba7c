"""Remote artifact tier: a shared content-addressed store behind the cache.

A fleet of serving replicas shares build work through two cache tiers: the
local :class:`~repro.engine.cache.ArtifactCache` directory is the L1, and a
:class:`RemoteArtifactStore` — any host running ``repro artifact-server``
(see :mod:`repro.serving.artifacts`) — is the L2.  On a local miss the
cache consults the remote tier; after a local cold build it pushes the new
artifacts back, so any replica's build warm-starts every other replica.

The remote tier is first and foremost a *robustness* boundary — the
network, the peer, or the payload can fail at any point, and a cache miss
must never become a request failure — so every operation degrades:

* **bounded retries** through the shared :class:`repro.retry.RetryPolicy`
  core (exponential backoff + full jitter, ``Retry-After`` honoured as a
  lower bound, a per-call deadline the pauses cannot blow);
* **verified adoption**: a fetched payload is sha256-checked against the
  server's ``X-Content-Sha256`` digest *before* it is renamed into the
  local cache (download to a ``.tmp`` sibling, then atomic
  ``os.replace``); a mismatch parks the payload as a ``*.corrupt`` sibling
  — quarantined exactly like local corruption, never loaded;
* **single-flight fetches**: concurrent requests for one artifact share
  one download; the losers adopt the winner's file;
* **a per-remote circuit breaker** (the shared
  :class:`~repro.retry.CircuitBreaker`): after ``breaker_threshold``
  consecutive transport/5xx failures the store fast-fails every lookup (a
  lock acquire and a clock read, microseconds) until a timed half-open
  probe; a dead store costs one cold build, not a hung fleet;
* **best-effort background pushes**: a push failure is logged and counted,
  never surfaced to the build that triggered it.

Fault points ``remote.fetch`` / ``remote.push``
(:mod:`repro.testing.faults`) fire per attempt and support payload faults
(truncated body, bit-flipped body) so the verification path is exercised
with realistic damage.  Telemetry lands in :mod:`repro.obs.metrics`:
``repro_remote_fetch_total{kind,outcome}``,
``repro_remote_push_total{outcome}``, a fetch-latency histogram, and
breaker transition counts.
"""

from __future__ import annotations

import hashlib
import http.client
import logging
import os
import threading
import time
import urllib.parse
import uuid
from pathlib import Path
from typing import Optional, Union

from repro.exceptions import RemoteStoreError
from repro.obs.metrics import LATENCY_BUCKETS, Counter, Histogram
from repro.retry import CircuitBreaker, RetryPolicy, parse_retry_after
from repro.testing import faults

__all__ = ["RemoteArtifactStore", "ARTIFACTS_ROUTE"]

_logger = logging.getLogger("repro.remote")

#: The content-addressed route prefix both this client and the
#: ``repro artifact-server`` speak.
ARTIFACTS_ROUTE = "/v1/artifacts"

#: Digest header carried by GET/HEAD answers and PUT requests.
DIGEST_HEADER = "X-Content-Sha256"

#: The budget, in seconds, of one fetch or push: every attempt and pause.
DEADLINE_SECONDS = 10.0

#: The statuses that settle a GET or a PUT as a success.
_OK_STATUSES = {"GET": (200,), "PUT": (200, 201)}

#: Process-wide remote-tier telemetry (shared by every store instance).
_REMOTE_FETCH = Counter(
    "repro_remote_fetch_total",
    "Remote artifact fetches by artifact kind and outcome "
    "(hit/miss/corrupt/error/breaker_open).",
    labelnames=("kind", "outcome"),
)
_REMOTE_PUSH = Counter(
    "repro_remote_push_total",
    "Remote artifact pushes by outcome (ok/error/breaker_open).",
    labelnames=("outcome",),
)
_REMOTE_FETCH_SECONDS = Histogram(
    "repro_remote_fetch_seconds",
    "Wall-clock seconds per remote fetch (network attempts included).",
    buckets=LATENCY_BUCKETS,
)
_REMOTE_BREAKER = Counter(
    "repro_remote_breaker_transitions_total",
    "Remote-store circuit breaker transitions, by new state.",
    labelnames=("state",),
)


def _artifact_kind(name: str) -> str:
    """The metric ``kind`` label for an artifact filename."""
    prefix = name.split("-", 1)[0]
    return prefix if prefix in ("catalog", "histogram", "positions") else "other"


class _NotFound(Exception):
    """Internal: the remote answered a clean 404 (a healthy miss)."""


class RemoteArtifactStore:
    """Content-addressed HTTP client for a shared artifact store.

    Speaks ``GET``/``PUT``/``HEAD`` of ``/v1/artifacts/<name>`` over
    :mod:`http.client` against one base URL.  All request-path entry points
    (:meth:`fetch`, :meth:`push`, :meth:`push_async`) are failure-proof by
    contract: they return outcomes instead of raising.  The operator
    surfaces (:meth:`head_artifact`, :meth:`list_artifacts`) raise
    :class:`~repro.exceptions.RemoteStoreError` so audit tooling can report
    a dead store instead of silently showing it empty.

    Parameters mirror :class:`~repro.serving.client.ServiceClient` where
    they overlap; ``breaker_threshold`` consecutive failed operations open
    the circuit for ``breaker_reset_seconds`` (``0`` disables the breaker).
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 5.0,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        backoff_max_seconds: float = 1.0,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
    ) -> None:
        if timeout <= 0:
            raise RemoteStoreError("timeout must be > 0")
        if breaker_threshold < 0:
            raise RemoteStoreError("breaker_threshold must be >= 0")
        if breaker_reset_seconds < 0:
            raise RemoteStoreError("breaker_reset_seconds must be >= 0")
        parsed = urllib.parse.urlsplit(base_url if "//" in base_url else f"//{base_url}")
        if parsed.scheme not in ("", "http"):
            raise RemoteStoreError(f"unsupported remote scheme: {parsed.scheme!r}")
        if not parsed.hostname:
            raise RemoteStoreError(f"remote URL has no host: {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._timeout = timeout
        self._policy = RetryPolicy(
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            backoff_max_seconds=backoff_max_seconds,
            deadline_seconds=DEADLINE_SECONDS,
        )
        self._breaker = CircuitBreaker(
            breaker_threshold, breaker_reset_seconds, self._breaker_transition
        )
        # Single-flight fetch dedup: one lock per in-flight artifact name.
        self._flights_lock = threading.Lock()
        self._flights: dict[str, threading.Lock] = {}
        # Outstanding background pushes (non-daemon: a short-lived CLI
        # process must finish its best-effort pushes before exiting).
        self._pushes_lock = threading.Lock()
        self._pushes: list[threading.Thread] = []
        self.fetches = 0
        self.hits = 0
        self.pushes = 0
        self.push_failures = 0

    @property
    def base_url(self) -> str:
        """The store base URL."""
        return f"http://{self._host}:{self._port}"

    # ------------------------------------------------------------------
    # fetch (request path — never raises)
    # ------------------------------------------------------------------
    def fetch(self, name: str, target: Union[str, Path]) -> str:
        """Fetch artifact ``name`` into ``target``; returns the outcome.

        Outcomes: ``"hit"`` (``target`` now holds a digest-verified copy),
        ``"miss"`` (the store answered a clean 404), ``"corrupt"`` (payload
        failed verification; parked as ``target.corrupt``, never adopted),
        ``"unavailable"`` (transport/5xx failure or open breaker — the
        caller proceeds exactly as on a miss).  Concurrent fetches of one
        name are single-flighted: the losers wait, then adopt the winner's
        file without a second download.
        """
        target = Path(target)
        kind = _artifact_kind(name)
        self.fetches += 1
        flight = self._flight(name)
        with flight:
            try:
                if target.exists():
                    # A concurrent flight (or a racing local build) already
                    # materialised the artifact while this caller waited.
                    self.hits += 1
                    _REMOTE_FETCH.inc(kind=kind, outcome="hit")
                    return "hit"
                if not self._breaker.admit():
                    _REMOTE_FETCH.inc(kind=kind, outcome="breaker_open")
                    return "unavailable"
                started = time.perf_counter()
                try:
                    payload, digest = self._download(name)
                except _NotFound:
                    self._breaker.record_success()
                    outcome = "miss"
                except Exception as exc:  # noqa: BLE001 - request path: degrade
                    self._breaker.record_failure(exc)
                    _logger.warning("remote fetch of %s failed: %s", name, exc)
                    outcome = "error"
                else:
                    self._breaker.record_success()
                    outcome = self._adopt(name, payload, digest, target)
                _REMOTE_FETCH.inc(kind=kind, outcome=outcome)
                _REMOTE_FETCH_SECONDS.observe(time.perf_counter() - started)
                if outcome == "hit":
                    self.hits += 1
                return "unavailable" if outcome == "error" else outcome
            finally:
                self._release_flight(name, flight)

    def _adopt(self, name: str, payload: bytes, digest: str, target: Path) -> str:
        """Verify ``payload`` against ``digest`` and rename it into place."""
        actual = hashlib.sha256(payload).hexdigest()
        temp = target.with_name(
            f".{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            temp.write_bytes(payload)
            if actual != digest:
                # Park the damaged payload for inspection, exactly like a
                # locally corrupted artifact — and never under the real
                # name, so it can never be loaded.
                parked = target.with_name(target.name + ".corrupt")
                os.replace(temp, parked)
                _logger.warning(
                    "remote payload for %s failed verification "
                    "(expected %.12s..., got %.12s...); parked at %s",
                    name,
                    digest,
                    actual,
                    parked,
                )
                return "corrupt"
            os.replace(temp, target)
            return "hit"
        except OSError as exc:  # pragma: no cover - disk trouble
            _logger.warning("cannot adopt remote artifact %s: %s", name, exc)
            return "unavailable"
        finally:
            temp.unlink(missing_ok=True)

    def _download(self, name: str) -> tuple[bytes, str]:
        """GET one artifact with retries; returns ``(payload, digest)``.

        Raises like :meth:`_exchange`.  Payload faults armed at the
        ``remote.fetch`` point mutate the body *before* verification, so
        armed damage is always caught by the digest.
        """
        headers, body = self._exchange("GET", name)
        body = faults.mutate_payload("remote.fetch", body, name=name)
        digest = headers.get(DIGEST_HEADER.lower(), "")
        if not digest:
            # A store that cannot vouch for its payloads is not trusted:
            # unverifiable bytes are never adopted.
            raise RemoteStoreError(f"GET {name}: response carries no {DIGEST_HEADER}", status=200)
        return body, digest

    def _exchange(
        self, method: str, name: str, payload: Optional[bytes] = None
    ) -> tuple[dict[str, str], bytes]:
        """One GET, or PUT of ``payload``, with retries; the answer's headers and body.

        Each attempt fires its fault point first: ``remote.fetch`` for a
        GET, ``remote.push`` and its payload faults for a PUT.  Transport
        errors, 429 and 5xx are retried while the policy's budget (attempts
        + deadline) lasts, then raised as
        :class:`~repro.exceptions.RemoteStoreError`; any other failed status
        raises it at once, except a GET's 404, which raises :class:`_NotFound`.
        """
        state = self._policy.start()
        last_error: Optional[RemoteStoreError] = None
        headers = None if payload is None else {DIGEST_HEADER: hashlib.sha256(payload).hexdigest()}
        while True:
            timeout = state.begin_attempt(self._timeout)
            if timeout is None:
                raise last_error or RemoteStoreError(
                    f"{method} {name}: deadline exhausted before the first attempt"
                )
            retry_after: Optional[float] = None
            try:
                if payload is None:
                    faults.fire("remote.fetch", name=name, method=method)
                    body = None
                else:
                    faults.fire("remote.push", name=name)
                    body = faults.mutate_payload("remote.push", payload, name=name)
                status, answer, data = self._request(
                    method, name, timeout=timeout, body=body, headers=headers
                )
            except (OSError, http.client.HTTPException) as exc:
                last_error = RemoteStoreError(f"cannot reach {self.base_url}: {exc}")
            else:
                if status in _OK_STATUSES[method]:
                    return answer, data
                if status == 404 and method == "GET":
                    raise _NotFound(name)
                retry_after = parse_retry_after(answer.get("retry-after"))
                last_error = RemoteStoreError(f"{method} {name} -> HTTP {status}", status=status)
                if status < 500 and status != 429:
                    raise last_error
            pause = state.next_pause(retry_after=retry_after)
            if pause is None:
                raise last_error
            if pause > 0:
                time.sleep(pause)

    # ------------------------------------------------------------------
    # push (best-effort — never raises)
    # ------------------------------------------------------------------
    def push(self, path: Union[str, Path], *, name: Optional[str] = None) -> bool:
        """PUT one local artifact file to the store; returns success.

        Failures are logged and counted (``push_failures``,
        ``repro_remote_push_total{outcome="error"}``), never raised: a push
        is a favour to the rest of the fleet, not part of the local build.
        """
        path = Path(path)
        name = name if name is not None else path.name
        # Read before asking the breaker: a local read failure says nothing
        # about the store, and must not take (and then hold) the half-open probe.
        try:
            payload = path.read_bytes()
        except OSError as exc:
            self.push_failures += 1
            _logger.warning("cannot read %s for push: %s", path, exc)
            _REMOTE_PUSH.inc(outcome="error")
            return False
        if not self._breaker.admit():
            _REMOTE_PUSH.inc(outcome="breaker_open")
            return False
        try:
            self._exchange("PUT", name, payload)
        except Exception as exc:  # noqa: BLE001 - best-effort by contract
            self._breaker.record_failure(exc)
            self.push_failures += 1
            _logger.warning("remote push of %s failed: %s", name, exc)
            _REMOTE_PUSH.inc(outcome="error")
            return False
        self._breaker.record_success()
        self.pushes += 1
        _REMOTE_PUSH.inc(outcome="ok")
        return True

    def push_async(self, path: Union[str, Path], *, name: Optional[str] = None) -> None:
        """Push in a background thread (non-daemon; see :meth:`flush`).

        The request path returns immediately; the thread carries the full
        retry/breaker/counting behaviour of :meth:`push`.
        """
        thread = threading.Thread(
            target=self.push,
            args=(Path(path),),
            kwargs={"name": name},
            name="repro-remote-push",
        )
        with self._pushes_lock:
            self._pushes = [t for t in self._pushes if t.is_alive()]
            self._pushes.append(thread)
        thread.start()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Wait for outstanding background pushes (tests and benchmarks).

        ``timeout`` bounds the wait *per thread*; pushes are already
        bounded by the per-call deadline, so a hung flush means a bug.
        """
        with self._pushes_lock:
            pending = list(self._pushes)
        for thread in pending:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # operator surfaces (raise on failure)
    # ------------------------------------------------------------------
    def head_artifact(self, name: str) -> Optional[dict[str, object]]:
        """HEAD one artifact: ``{"bytes", "sha256"}``, or ``None`` on 404.

        Raises :class:`~repro.exceptions.RemoteStoreError` when the store
        cannot answer — an audit must distinguish "absent" from "unknown".
        """
        try:
            faults.fire("remote.fetch", name=name, method="HEAD")
            status, headers, _ = self._request("HEAD", name, timeout=self._timeout)
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteStoreError(f"cannot reach {self.base_url}: {exc}") from exc
        if status == 404:
            return None
        if status != 200:
            raise RemoteStoreError(f"HEAD {name} -> HTTP {status}", status=status)
        try:
            size = int(headers.get("content-length", "-1"))
        except ValueError:
            size = -1
        return {"bytes": size, "sha256": headers.get(DIGEST_HEADER.lower(), "")}

    def list_artifacts(self) -> list[dict[str, object]]:
        """The store's index: one ``{"name", "bytes", "mtime"}`` row per file.

        Raises :class:`~repro.exceptions.RemoteStoreError` on any failure.
        """
        import json

        try:
            status, _, body = self._request("", "", timeout=self._timeout)
        except (OSError, http.client.HTTPException) as exc:
            raise RemoteStoreError(f"cannot reach {self.base_url}: {exc}") from exc
        if status != 200:
            raise RemoteStoreError(f"GET {ARTIFACTS_ROUTE} -> HTTP {status}", status=status)
        try:
            document = json.loads(body.decode("utf-8"))
            rows = document["artifacts"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise RemoteStoreError(f"malformed index from {self.base_url}: {exc}") from exc
        return list(rows)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        name: str,
        *,
        timeout: float,
        body: Optional[bytes] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP attempt; returns ``(status, lower-cased headers, body)``.

        ``method=""`` with an empty name requests the index route.  A fresh
        connection per attempt keeps the client thread-safe and makes the
        per-attempt timeout authoritative (no half-dead keep-alives).
        """
        route = ARTIFACTS_ROUTE if not name else f"{ARTIFACTS_ROUTE}/{name}"
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout
        )
        try:
            connection.request(
                method or "GET",
                route,
                body=body,
                headers={"Accept": "application/json", **(headers or {})},
            )
            response = connection.getresponse()
            payload = b"" if method == "HEAD" else response.read()
            answer_headers = {
                key.lower(): value for key, value in response.getheaders()
            }
            return response.status, answer_headers, payload
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # single-flight bookkeeping
    # ------------------------------------------------------------------
    def _flight(self, name: str) -> threading.Lock:
        """The (acquire-me) lock serialising fetches of ``name``."""
        with self._flights_lock:
            lock = self._flights.get(name)
            if lock is None:
                lock = threading.Lock()
                self._flights[name] = lock
            return lock

    def _release_flight(self, name: str, lock: threading.Lock) -> None:
        """Drop the flight entry once no other waiter holds a reference."""
        with self._flights_lock:
            if self._flights.get(name) is lock and not lock.locked():
                # Best-effort cleanup; a racing waiter that still holds the
                # lock object simply re-registers it on its next fetch.
                self._flights.pop(name, None)

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _breaker_transition(self, state: str) -> None:
        """Log and count one breaker transition (``state`` is the new state)."""
        if state == "open":
            _logger.warning(
                "remote store %s circuit opened after %d failure(s): %s",
                self.base_url,
                self._breaker.failures,
                self._breaker.last_error,
            )
        elif state == "closed":
            _logger.info("remote store %s circuit closed", self.base_url)
        _REMOTE_BREAKER.inc(state=state)

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit is currently open (inside its reset window)."""
        return self._breaker.open_for() > 0

    def describe(self) -> dict[str, object]:
        """One observable row: URL, counters, breaker state."""
        state, _ = self._breaker.state()
        return {
            "url": self.base_url,
            "fetches": self.fetches,
            "hits": self.hits,
            "pushes": self.pushes,
            "push_failures": self.push_failures,
            "breaker_open": state == "open",
            "breaker_failures": self._breaker.failures,
            "breaker_last_error": self._breaker.last_error,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<RemoteArtifactStore {self.base_url!r}>"
