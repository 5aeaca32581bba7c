"""Drive a ``repro serve`` process: spawn, load, scrape, stop.

The client side is the stdlib ``http.client`` on keep-alive connections,
one thread per connection, so it costs the same whatever the server does.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

READY_LINE = re.compile(r"^serving .* on http://([^:\s]+):(\d+)")

#: Exceptions that mean the request got no HTTP answer (counted as failed).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The next line ``proc`` prints; ``""`` once it exits or the deadline passes.

    The children print each line whole and flushed, so a readable pipe holds
    at least one full line.
    """
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return ""
        readable, _, _ = select.select([proc.stdout], [], [], min(remaining, 1.0))
        if readable:
            return proc.stdout.readline().decode("utf-8", "replace").strip()
        if proc.poll() is not None:
            return ""


class ServerProcess:
    """One ``repro serve`` child; ready once it prints its serving line."""

    def __init__(self, argv: Sequence[str], *, env: dict, cwd: str, log_path: str,
                 timeout: float = 150.0) -> None:
        self._log = open(log_path, "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=cwd
        )
        deadline = self.spawned + timeout
        while True:
            line = read_line(self.proc, deadline)
            match = READY_LINE.match(line)
            if match:
                self.ready = time.perf_counter()
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if not line:
                self.stop()
                raise RuntimeError(f"server did not become ready (see {log_path})")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Connection:
    """A keep-alive HTTP connection that reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                rid: str = "") -> tuple[int, bytes]:
        """``(status, body)``; status 0 when the connection failed."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=60)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if rid:
            headers["X-Request-Id"] = rid
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except TRANSPORT_ERRORS:
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Exchange:
    """One request as the client saw it."""

    sent: float
    received: float
    status: int
    index: int
    body: bytes

    @property
    def ms(self) -> float:
        return (self.received - self.sent) * 1000.0


@dataclass
class LoopResult:
    exchanges: list = field(default_factory=list)  # (connection index, Exchange)
    started: float = 0.0
    ended: float = 0.0

    @property
    def seconds(self) -> float:
        return self.ended - self.started


class Planners:
    """Closed-loop clients, one thread and one keep-alive connection each.

    Planner ``c`` cycles through ``bodies[c]``, sending its next body once
    the previous one is answered.  The load runs in segments; connections
    and each planner's place in its cycle carry over from one segment to
    the next, as a planner that pauses between queries would see.
    """

    def __init__(self, host: str, port: int, bodies: Sequence[Sequence[bytes]],
                 rid_prefix: str = "") -> None:
        self._bodies = bodies
        self._rid_prefix = rid_prefix
        self._conns = [Connection(host, port) for _ in bodies]
        self._sent = [0] * len(bodies)

    def run(self, *, until: Optional[Callable[[], bool]] = None,
            count: Optional[int] = None) -> LoopResult:
        """One segment: until ``until()`` is true, or ``count`` requests per planner."""
        result = LoopResult()
        lock = threading.Lock()

        def client(conn_index: int) -> None:
            conn = self._conns[conn_index]
            mine = self._bodies[conn_index]
            local = []
            try:
                while not (until() if until is not None else len(local) >= count):
                    sent_count = self._sent[conn_index]
                    index = sent_count % len(mine)
                    rid = f"{self._rid_prefix}{conn_index}-{sent_count}" if self._rid_prefix else ""
                    sent = time.perf_counter()
                    status, data = conn.request("POST", "/v1/estimate", mine[index], rid)
                    local.append(Exchange(sent, time.perf_counter(), status, index, data))
                    self._sent[conn_index] = sent_count + 1
            finally:
                with lock:
                    result.exchanges.extend((conn_index, e) for e in local)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(len(self._bodies))]
        result.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.ended = time.perf_counter()
        return result

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


def get_json(conn: Connection, path: str) -> dict:
    status, data = conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(data)


_SERIES = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape_metrics(conn: Connection) -> dict[str, float]:
    """``/metrics`` as ``{'name{labels}': value}`` (labels kept verbatim)."""
    status, data = conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    series = {}
    for line in data.decode("utf-8").splitlines():
        match = _SERIES.match(line)
        if match:
            series[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return series


def series_sum(series: dict[str, float], name: str, **labels: str) -> float:
    """Sum of every ``name`` series whose labels include ``labels``."""
    total = 0.0
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    for key, value in series.items():
        base, _, rest = key.partition("{")
        if base == name and all(w in rest for w in wanted):
            total += value
    return total
