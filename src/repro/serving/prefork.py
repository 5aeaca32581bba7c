"""Pre-fork multi-process serving tier.

One parent process binds the listening socket (and optionally pre-builds
every registered session so the artifact cache is warm), then forks
``worker_count`` children.  Each child runs the ordinary
:func:`~repro.serving.http.make_server` stack — its own
:class:`~repro.serving.registry.SessionRegistry`, scheduler threads and
``ThreadingHTTPServer`` accept loop — against read-only memory-mapped
catalog artifacts, so the large arrays are file-backed pages every worker
shares instead of N private copies.

Socket sharing strategy
-----------------------
Where the platform offers ``SO_REUSEPORT`` each worker binds its *own*
socket to the parent's resolved address and the kernel load-balances
accepted connections across them.  Elsewhere the workers run a classic
inherited-FD accept loop on the one socket the parent bound before
forking.  Either way the parent itself never accepts a connection.

Lifecycle
---------
* A worker that exits unexpectedly is respawned; consecutive fast deaths
  back the respawn off exponentially (``backoff_seconds`` doubling up to
  :data:`BACKOFF_MAX_SECONDS`) so a crash-looping worker cannot spin the
  parent at 100% CPU.
* ``SIGTERM``/``SIGINT`` to the parent forwards ``SIGTERM`` to every
  worker; each worker's own handler flips ``/readyz`` to 503 first
  (``begin_drain``) and then drains in-flight requests before exiting, so
  a load balancer sees the drain while answers are still being written.
  The parent waits for all children, escalating to ``SIGKILL`` only after
  ``drain_seconds``.
* Observability is **per worker**: ``/metrics``, ``/stats`` and
  ``/traces`` describe only the worker that happened to answer the
  request.  Scrapers must aggregate across workers (or pin a worker);
  cross-request counter comparisons on one keep-alive connection stay
  consistent because a connection never migrates between workers.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from typing import Callable, Optional

from repro.exceptions import ServingError

__all__ = ["PreforkServer"]

#: The cap on the respawn pause of a crash-looping worker, in seconds.
BACKOFF_MAX_SECONDS = 2.0

#: A worker that lived this many seconds resets the respawn backoff.
STABLE_SECONDS = 5.0


def _bind_socket(
    host: str, port: int, *, reuse_port: bool, listen: bool
) -> socket.socket:
    """Bind ``host:port``; optionally with ``SO_REUSEPORT`` and a listen().

    ``listen=False`` matters in the ``SO_REUSEPORT`` topology: the kernel
    spreads connections across every *listening* socket on the port, so
    the parent claims the port (and resolves an ephemeral one) with a
    bound-but-silent socket while only the workers listen — a listening
    parent would swallow its share of connections and never accept them.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


class PreforkServer:
    """Parent-side supervisor for a fleet of forked serving workers.

    Parameters
    ----------
    host / port:
        Address to serve on; ``port=0`` binds an ephemeral port (read the
        resolved one back from :attr:`port` — the socket is bound in the
        constructor, before any fork).
    worker_count:
        Number of worker processes to fork (must be >= 1).
    registry_factory:
        Zero-argument callable building a fresh
        :class:`~repro.serving.registry.SessionRegistry`; called once in
        each child *after* the fork so scheduler threads and locks are
        born in the process that uses them.
    server_factory:
        ``(registry, inherited_socket) ->`` server callable building the
        worker's :class:`~repro.serving.http.EstimationHTTPServer` on the
        shared socket; also called post-fork, in the child.
    warm:
        Optional zero-argument callable the parent runs once before
        forking (typically: build every session so workers find a warm
        artifact cache).
    backoff_seconds:
        Respawn backoff: a worker that lived less than
        :data:`STABLE_SECONDS` doubles the pause before its replacement is
        forked, capped at :data:`BACKOFF_MAX_SECONDS`; a stable worker
        resets the schedule.
    drain_seconds:
        How long a terminating parent waits for workers to drain before
        escalating to ``SIGKILL``.
    """

    def __init__(
        self,
        *,
        host: str,
        port: int,
        worker_count: int,
        registry_factory: Callable[[], object],
        server_factory: Callable[..., object],
        warm: Optional[Callable[[], None]] = None,
        backoff_seconds: float = 0.1,
        drain_seconds: float = 15.0,
    ) -> None:
        if worker_count < 1:
            raise ServingError("worker_count must be >= 1")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise ServingError("pre-fork serving requires os.fork (POSIX only)")
        self._worker_count = worker_count
        self._registry_factory = registry_factory
        self._server_factory = server_factory
        self._warm = warm
        self._backoff = backoff_seconds
        self._drain_seconds = drain_seconds
        self._reuse_port = hasattr(socket, "SO_REUSEPORT")
        self._socket = _bind_socket(
            host, port, reuse_port=self._reuse_port, listen=not self._reuse_port
        )
        self._host, self._port = self._socket.getsockname()[:2]
        self._children: dict[int, float] = {}  # pid -> fork time
        self._draining = False

    @property
    def port(self) -> int:
        """The resolved listening port (useful with ``port=0``)."""
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` address."""
        return (self._host, self._port)

    # ------------------------------------------------------------------
    # child side
    # ------------------------------------------------------------------
    def _worker_socket(self) -> socket.socket:
        """The socket this worker should accept on.

        With ``SO_REUSEPORT`` the worker binds its own socket so the
        kernel load-balances connections across workers; the inherited
        one is closed.  If that bind fails (the option unsupported at
        bind time), fall back to the inherited-FD accept loop —
        correctness over balance.  Either way the server's
        ``server_activate`` issues the ``listen()``.
        """
        if self._reuse_port:
            try:
                own = _bind_socket(
                    self._host, self._port, reuse_port=True, listen=False
                )
            except OSError:
                return self._socket
            self._socket.close()
            return own
        return self._socket

    def _child_main(self) -> None:
        """Run one worker to completion; never returns to caller code."""
        exit_code = 0
        try:
            sock = self._worker_socket()
            server = self._server_factory(self._registry_factory(), sock)
            server.serve_until_signalled()
        except BaseException as exc:  # noqa: BLE001 - process boundary
            print(
                f"[prefork] worker pid={os.getpid()} crashed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
                flush=True,
            )
            exit_code = 1
        # _exit, not sys.exit: unwinding into the parent's CLI stack from
        # a forked child would run its atexit hooks and finally blocks a
        # second time.
        os._exit(exit_code)

    # ------------------------------------------------------------------
    # parent side
    # ------------------------------------------------------------------
    def _spawn(self) -> int:
        pid = os.fork()
        if pid == 0:
            self._child_main()
            raise AssertionError("unreachable")  # pragma: no cover
        self._children[pid] = time.monotonic()
        return pid

    def _terminate_children(self, signum: int = signal.SIGTERM) -> None:
        for pid in list(self._children):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:  # pragma: no cover - already reaped
                pass

    def _install_signal_handlers(self) -> None:
        def _drain(signum: int, frame: object) -> None:
            # PEP 475 retries the blocking waitpid after this handler
            # returns, so the forwarding must happen here: the children
            # exit, waitpid reaps them, and run()'s loop ends.  A hung
            # worker would park waitpid forever, hence the escalation
            # timer rather than a deadline check inside the loop.
            if self._draining:
                return
            self._draining = True
            print(
                f"[prefork] signal {signum}: draining {len(self._children)} "
                "worker(s)",
                file=sys.stderr,
                flush=True,
            )
            self._terminate_children()
            killer = threading.Timer(
                self._drain_seconds,
                lambda: self._terminate_children(signal.SIGKILL),
            )
            killer.daemon = True
            killer.start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _drain)
            except ValueError:  # pragma: no cover - non-main thread
                pass

    def run(self) -> int:
        """Fork the workers and supervise until drained; returns exit code."""
        if self._warm is not None:
            self._warm()
        self._install_signal_handlers()
        failures = 0
        for _ in range(self._worker_count):
            self._spawn()
        while self._children:
            try:
                pid, status = os.waitpid(-1, 0)
            except InterruptedError:  # pragma: no cover - pre-PEP475 paths
                continue
            except ChildProcessError:  # pragma: no cover - raced a reap
                break
            born = self._children.pop(pid, time.monotonic())
            if self._draining:
                continue
            lifetime = time.monotonic() - born
            code = os.waitstatus_to_exitcode(status)
            if lifetime < STABLE_SECONDS:
                failures += 1
            else:
                failures = 0
            pause = min(BACKOFF_MAX_SECONDS, self._backoff * (2 ** max(0, failures - 1)))
            print(
                f"[prefork] worker pid={pid} exited "
                f"({'signal ' + str(-code) if code < 0 else 'code ' + str(code)}) "
                f"after {lifetime:.1f}s; respawning in {pause:.2f}s",
                file=sys.stderr,
                flush=True,
            )
            # An interruptible pause: a drain signal during the sleep
            # must not be followed by a fresh fork.
            end = time.monotonic() + pause
            while not self._draining and time.monotonic() < end:
                time.sleep(min(0.05, max(0.0, end - time.monotonic())))
            if self._draining:
                continue
            self._spawn()
        self._socket.close()
        print("[prefork] drained; bye", file=sys.stderr, flush=True)
        return 0
