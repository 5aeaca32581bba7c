"""Stdlib content-addressed artifact server: the fleet's shared L2 cache.

``repro artifact-server`` serves one directory of engine build artifacts
(``catalog-*.npz``, ``histogram-*.json``, ``positions-*.npy``) to a fleet
of replicas whose :class:`~repro.engine.remote.RemoteArtifactStore` clients
fetch on local miss and push after cold builds.  Like the estimation
endpoint it is a bare threading HTTP server — no framework, no
dependencies — on the shared scaffold of :mod:`repro.serving.base`, which
owns the wire behaviour: keep-alive, request ids, the error envelope, the
body cap and ``/metrics``.

Routes
------
``GET  /v1/artifacts``         JSON index: ``{"artifacts": [{name, bytes,
                               mtime}, ...]}``
``GET  /v1/artifacts/<name>``  the artifact bytes; ``X-Content-Sha256``
                               carries the payload digest the client
                               verifies before adoption
``HEAD /v1/artifacts/<name>``  headers only (size + digest) — presence
                               probes for ``repro engine cache list
                               --remote``
``PUT  /v1/artifacts/<name>``  store an artifact (atomic temp +
                               ``os.replace``); when the request carries
                               ``X-Content-Sha256`` the body is verified
                               against it and a mismatch is refused with
                               400 (``digest_mismatch``) — a corrupted
                               upload never lands
``GET  /healthz`` / ``/readyz``  liveness / readiness (directory writable)
``GET  /metrics``              Prometheus text exposition

Artifact names are strictly validated (``catalog-``/``histogram-``/
``positions-`` prefix, key charset, known suffix) so the server can never
be walked outside its directory and never stores a name the cache globs
would not recognise.

Digests are computed lazily and cached per ``(size, mtime_ns)``, so a
repeatedly fetched catalog is hashed once, not per request, while any
rewrite invalidates the entry.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import uuid
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs.metrics import Counter, MetricsRegistry, default_registry
from repro.serving.base import ServingHandler, ServingHTTPServer

__all__ = ["ArtifactHTTPServer", "make_artifact_server", "ARTIFACTS_PREFIX"]

#: Route prefix shared with :class:`~repro.engine.remote.RemoteArtifactStore`.
ARTIFACTS_PREFIX = "/v1/artifacts"

#: Acceptable artifact filenames: the exact shapes the engine cache writes.
#: Anchored and free of separators, so a name can never escape the store
#: directory or smuggle in an unexpected artifact kind.
_NAME_RE = re.compile(
    r"^(?:catalog-[A-Za-z0-9_.-]+\.npz"
    r"|histogram-[A-Za-z0-9_.-]+\.json"
    r"|positions-[A-Za-z0-9_.-]+\.npy)$"
)


class ArtifactHTTPServer(ServingHTTPServer):
    """A threading HTTP server exposing one artifact directory."""

    def __init__(
        self,
        address: tuple[str, int],
        directory: Union[str, Path],
        *,
        max_body_bytes: int = 256 * 2**20,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        metrics = metrics if metrics is not None else default_registry()
        self._requests = Counter(
            "repro_artifact_requests_total",
            "Artifact-server requests answered, by method and status.",
            labelnames=("method", "status"),
            registry=metrics,
        )
        self._bytes_served = Counter(
            "repro_artifact_bytes_served_total",
            "Artifact payload bytes answered to GET requests.",
            registry=metrics,
        )
        self._bytes_stored = Counter(
            "repro_artifact_bytes_stored_total",
            "Artifact payload bytes accepted from PUT requests.",
            registry=metrics,
        )
        # sha256 per (size, mtime_ns): rehash only when the file changed.
        self._digest_lock = threading.Lock()
        self._digests: dict[str, tuple[tuple[int, int], str]] = {}
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        super().__init__(address, _ArtifactHandler, max_body_bytes=max_body_bytes, metrics=metrics)

    def observe(self, *, method: str, status: int) -> None:
        """Feed one answered request into the request counter."""
        self._requests.inc(method=method, status=status)

    def artifact_path(self, name: str) -> Optional[Path]:
        """The on-disk path for a *valid* artifact name, else ``None``."""
        if not _NAME_RE.match(name):
            return None
        return self.directory / name

    def digest_for(self, path: Path) -> Optional[str]:
        """The cached-or-computed sha256 of ``path`` (``None`` when gone)."""
        try:
            stat = path.stat()
        except OSError:
            return None
        stamp = (stat.st_size, stat.st_mtime_ns)
        with self._digest_lock:
            cached = self._digests.get(path.name)
            if cached is not None and cached[0] == stamp:
                return cached[1]
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return None
        with self._digest_lock:
            self._digests[path.name] = (stamp, digest)
        return digest

    def remember_digest(self, path: Path, digest: str) -> None:
        """Seed the digest cache after a PUT (the hash is already known)."""
        try:
            stat = path.stat()
        except OSError:
            return
        with self._digest_lock:
            self._digests[path.name] = ((stat.st_size, stat.st_mtime_ns), digest)

    def index(self) -> list[dict[str, object]]:
        """One ``{"name", "bytes", "mtime"}`` row per stored artifact."""
        rows: list[dict[str, object]] = []
        for path in sorted(self.directory.iterdir()):
            if not path.is_file() or not _NAME_RE.match(path.name):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(
                {
                    "name": path.name,
                    "bytes": stat.st_size,
                    "mtime": stat.st_mtime,
                }
            )
        return rows

    def writable(self) -> bool:
        """Whether the store directory currently accepts writes."""
        probe = self.directory / f".readyz.{os.getpid()}.{uuid.uuid4().hex}"
        try:
            probe.write_bytes(b"")
            probe.unlink()
        except OSError:
            return False
        return True


class _ArtifactHandler(ServingHandler):
    server: ArtifactHTTPServer  # narrowed for attribute access
    server_version = "repro-artifacts/1.0"

    def _answer(self, method: str, route: "Callable[[], None]") -> None:
        """Run one routed request behind the fault barrier, then count it."""
        self._begin_request()
        try:
            route()
        except Exception as exc:  # noqa: BLE001 - the fault barrier
            self._answer_fault(exc)
        finally:
            self.server.observe(method=method, status=self._status)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _artifact_name(self) -> Optional[str]:
        """The validated artifact name in the request path, or ``None``.

        ``None`` means the response has already been sent (404 for a
        non-artifact route or an invalid name).
        """
        if not self.path.startswith(ARTIFACTS_PREFIX + "/"):
            self._send_error_json(404, f"no such route: {self.path}")
            return None
        name = self.path[len(ARTIFACTS_PREFIX) + 1 :]
        if self.server.artifact_path(name) is None:
            self._send_error_json(404, f"not a valid artifact name: {name!r}")
            return None
        return name

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Route GET: probes, metrics, the index, and artifact downloads."""
        self._answer("GET", self._route_get)

    def _route_get(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok", "artifacts": len(self.server.index())})
        elif self.path == "/readyz":
            if self.server.writable():
                self._send_json(200, {"status": "ok", "writable": True})
            else:
                self._send_error_json(503, "store directory is not writable", code="not_ready")
        elif self.path == "/metrics":
            self._send_metrics()
        elif self.path == ARTIFACTS_PREFIX:
            self._send_json(200, {"artifacts": self.server.index()})
        else:
            self._serve_artifact(head=False)

    def do_HEAD(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Route HEAD: presence/digest probes on artifact names."""
        self._answer("HEAD", lambda: self._serve_artifact(head=True))

    def _serve_artifact(self, *, head: bool) -> None:
        name = self._artifact_name()
        if name is None:
            return
        path = self.server.artifact_path(name)
        assert path is not None  # _artifact_name validated
        try:
            body = path.read_bytes()
        except FileNotFoundError:
            self._send_error_json(404, f"no such artifact: {name}")
            return
        except OSError as exc:  # pragma: no cover - disk trouble
            self._send_error_json(500, f"cannot read {name}: {exc!r}")
            return
        digest = self.server.digest_for(path)
        if digest is None:
            # Deleted between read and stat; hash what was actually read.
            digest = hashlib.sha256(body).hexdigest()
        self._send(200, body, "application/octet-stream", {"X-Content-Sha256": digest}, head=head)
        if not head:
            self.server._bytes_served.inc(len(body))

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Route PUT: verified, atomic artifact uploads."""
        self._answer("PUT", self._store_artifact)

    def _store_artifact(self) -> None:
        name = self._artifact_name()
        if name is None:
            # Refused before reading the body: the unread bytes would be
            # parsed as the next request, so drop the connection.
            self.close_connection = True
            return
        body = self._read_body(required=True)
        if body is None:
            return
        digest = hashlib.sha256(body).hexdigest()
        claimed = (self.headers.get("X-Content-Sha256") or "").strip().lower()
        if claimed and claimed != digest:
            # The uploader knows what it read from disk; a mismatch means the
            # body was damaged in flight.  Refusing here keeps a corrupt
            # artifact from ever entering the shared tier.
            self._send_error_json(
                400,
                f"payload digest {digest[:12]}... does not match "
                f"claimed {claimed[:12]}...",
                code="digest_mismatch",
            )
            return
        path = self.server.artifact_path(name)
        assert path is not None  # _artifact_name validated
        created = not path.exists()
        temp = path.with_name(f".{name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            temp.write_bytes(body)
            os.replace(temp, path)
        except OSError as exc:  # pragma: no cover - disk trouble
            self._send_error_json(500, f"cannot store {name}: {exc!r}")
            return
        finally:
            temp.unlink(missing_ok=True)
        self.server.remember_digest(path, digest)
        self.server._bytes_stored.inc(len(body))
        self._send_json(
            201 if created else 200, {"name": name, "bytes": len(body), "sha256": digest}
        )

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """Reject POST uniformly (the store speaks GET/HEAD/PUT)."""
        self._answer("POST", self._reject_post)

    def _reject_post(self) -> None:
        self.close_connection = True
        self._send_error_json(405, "artifact store speaks GET/HEAD/PUT")


def make_artifact_server(
    directory: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 8081,
    max_body_bytes: int = 256 * 2**20,
    metrics: Optional[MetricsRegistry] = None,
) -> ArtifactHTTPServer:
    """Build a ready-to-run artifact server (``serve_forever``/``shutdown``).

    Pass ``port=0`` for an ephemeral port (read it back from
    ``server.server_address``); tests and the benchmarks do exactly that.
    """
    return ArtifactHTTPServer(
        (host, port),
        directory,
        max_body_bytes=max_body_bytes,
        metrics=metrics,
    )
