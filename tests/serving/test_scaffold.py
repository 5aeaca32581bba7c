"""The wire contract both servers inherit from :mod:`repro.serving.base`.

``repro serve`` and ``repro artifact-server`` share one handler/server
base, so every case here runs once per server: one-write keep-alive
responses, request-id intake, the error envelope (protocol errors
included) and the body-cap read.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.engine import EngineConfig
from repro.graph.generators import zipf_labeled_graph
from repro.obs.metrics import MetricsRegistry
from repro.serving import SessionRegistry, make_artifact_server, make_server

CONFIG = EngineConfig(max_length=2, bucket_count=8)

ENVELOPE_KEYS = {"error", "code", "retry_after", "request_id"}

#: Body cap of both servers under test.
CAP = 64 * 2**10


@dataclass
class Endpoint:
    """One running server and the requests that exercise its routes."""

    host: str
    port: int
    ok: tuple[str, str, Optional[bytes]]  # answered 200
    upload: tuple[str, str]  # a route that reads a request body
    unknown: tuple[str, str, Optional[bytes]]  # no such route

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)


@pytest.fixture(params=["estimate", "artifacts"])
def endpoint(request, tmp_path):
    if request.param == "estimate":
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g"))
        server = make_server(registry, port=0, window_seconds=0.005, max_body_bytes=CAP)
        ok = ("POST", "/v1/estimate", json.dumps({"graph": "g", "paths": ["1/2"]}).encode())
        upload = ("POST", "/v1/estimate")
        unknown = ("POST", "/v1/nope", b"{}")
        close = server.close
    else:
        store = tmp_path / "store"
        server = make_artifact_server(store, port=0, metrics=MetricsRegistry(), max_body_bytes=CAP)
        (store / "catalog-wire.npz").write_bytes(bytes(range(256)) * 16)
        ok = ("GET", "/v1/artifacts/catalog-wire.npz", None)
        upload = ("PUT", "/v1/artifacts/catalog-big.npz")
        unknown = ("GET", "/v1/nope", None)
        close = server.server_close
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield Endpoint(host, port, ok, upload, unknown)
    finally:
        server.shutdown()
        close()
        thread.join(timeout=10)


def _error(endpoint: Endpoint, method: str, path: str, body: Optional[bytes], **headers):
    request = urllib.request.Request(endpoint.url + path, data=body, method=method, headers=headers)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    exc = excinfo.value
    return exc.code, exc.headers, json.loads(exc.read().decode("utf-8"))


class TestWire:
    def test_keep_alive_requests_skip_delayed_ack(self, endpoint):
        # Each response must leave in one write with TCP_NODELAY; headers and
        # body in two sends make every keep-alive request wait out the
        # client's ~40 ms delayed ACK.
        method, path, body = endpoint.ok
        connection = endpoint.connect()
        seconds = []
        try:
            for attempt in range(21):
                started = time.perf_counter()
                connection.request(method, path, body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                if attempt:  # the first estimate builds the session
                    seconds.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020

    def test_request_id_is_echoed_or_minted(self, endpoint):
        method, path, body = endpoint.ok
        connection = endpoint.connect()
        try:
            connection.request(method, path, body=body, headers={"X-Request-Id": "rid-42"})
            response = connection.getresponse()
            response.read()
            assert response.getheader("X-Request-Id") == "rid-42"
            connection.request(method, path, body=body)
            response = connection.getresponse()
            response.read()
            assert re.fullmatch(r"[0-9a-f]{32}", response.getheader("X-Request-Id"))
        finally:
            connection.close()


class TestErrorEnvelope:
    def test_unknown_route_is_404_envelope(self, endpoint):
        status, headers, envelope = _error(
            endpoint, *endpoint.unknown, **{"X-Request-Id": "rid-404"}
        )
        assert status == 404
        assert set(envelope) >= ENVELOPE_KEYS
        assert envelope["code"] == "not_found"
        assert envelope["retry_after"] is None
        assert envelope["request_id"] == headers["X-Request-Id"] == "rid-404"

    def test_malformed_request_line_gets_envelope_and_close(self, endpoint):
        with socket.create_connection((endpoint.host, endpoint.port), timeout=30) as raw:
            raw.sendall(b"GET / extra-word HTTP/1.1\r\nHost: x\r\n\r\n")
            answer = b""
            while chunk := raw.recv(65536):  # the server closes the connection
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        envelope = json.loads(body.decode("utf-8"))
        assert set(envelope) >= ENVELOPE_KEYS
        assert envelope["code"] == "bad_request"
        assert "Bad request syntax" in envelope["error"]


class TestBodyRead:
    def test_refused_body_is_never_read_as_a_request(self, endpoint):
        # A request refused before its body is read must not leave that
        # body in the stream, where it would parse as the next request.
        method, _ = endpoint.upload
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (
            f"{method} /v1/nope-not-an-artifact HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(smuggled)}\r\n\r\n"
        ).encode() + smuggled
        answer = b""
        with socket.create_connection((endpoint.host, endpoint.port), timeout=0.5) as raw:
            raw.sendall(request)
            try:
                while chunk := raw.recv(65536):
                    answer += chunk
            except socket.timeout:  # a kept-alive connection stays open
                pass
        assert answer.count(b"HTTP/1.1 ") == 1

    def test_oversized_body_is_413(self, endpoint):
        status, _, envelope = _error(endpoint, *endpoint.upload, b"x" * (CAP + 1024))
        assert status == 413
        assert envelope["code"] == "body_too_large"

    def test_invalid_content_length_is_400(self, endpoint):
        method, path = endpoint.upload
        request = urllib.request.Request(endpoint.url + path, data=b"{}", method=method)
        request.add_unredirected_header("Content-Length", "not-a-number")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "Content-Length" in body["error"]
