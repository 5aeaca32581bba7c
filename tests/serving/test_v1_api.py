"""The versioned ``/v1/`` API surface, its removed aliases, and the
uniform error envelope.

Every API route lives under :data:`repro.serving.http.API_PREFIX`.  The
unversioned spellings served one release as deprecated aliases and are now
removed: they answer the 404 envelope pointing at the ``/v1`` route while
still bumping ``repro_http_deprecated_requests_total``, so a straggler
client stays visible on the migration dashboard.  Every non-2xx response
carries the envelope ``{"error", "code", "retry_after", "request_id"}``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.exceptions import ServingError
from repro.graph.generators import zipf_labeled_graph
from repro.serving import API_PREFIX, ServiceClient, SessionRegistry, make_server

CONFIG = EngineConfig(max_length=2, bucket_count=8)

ENVELOPE_KEYS = {"error", "code", "retry_after", "request_id"}


@pytest.fixture()
def server():
    registry = SessionRegistry(default_config=CONFIG)
    registry.register(
        "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g")
    )
    server = make_server(registry, port=0, window_seconds=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


@pytest.fixture()
def base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture()
def client(base):
    return ServiceClient(base, timeout=30.0)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            dict(response.headers),
            json.loads(response.read().decode("utf-8")),
        )


def _post(url: str, document: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return (
            response.status,
            dict(response.headers),
            json.loads(response.read().decode("utf-8")),
        )


def _error(url: str, document: dict | None = None):
    data = (
        json.dumps(document).encode("utf-8") if document is not None else None
    )
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    exc = excinfo.value
    return exc.code, json.loads(exc.read().decode("utf-8"))


class TestVersionedRoutes:
    def test_all_api_routes_answer_under_v1(self, base, server):
        status, headers, stats = _get(f"{base}{API_PREFIX}/stats")
        assert status == 200 and "scheduler" in stats
        status, headers, rows = _get(f"{base}{API_PREFIX}/graphs")
        assert status == 200 and rows["graphs"][0]["name"] == "g"
        status, headers, answer = _post(
            f"{base}{API_PREFIX}/estimate", {"graph": "g", "paths": ["1/2"]}
        )
        assert status == 200 and answer["count"] == 1
        status, headers, build = _post(
            f"{base}{API_PREFIX}/warm", {"graph": "g"}
        )
        assert status == 200 and build["stats"]["domain_size"] > 0
        status, headers, update = _post(
            f"{base}{API_PREFIX}/update",
            {"graph": "g", "add": [["u", "1", "v"]]},
        )
        assert status == 200 and update["additions"] == 1
        status, headers, evicted = _post(
            f"{base}{API_PREFIX}/evict", {"graph": "g"}
        )
        assert status == 200

    def test_v1_responses_are_not_marked_deprecated(self, base):
        status, headers, _ = _get(f"{base}{API_PREFIX}/stats")
        assert status == 200
        assert "Deprecation" not in headers

    def test_health_routes_stay_unversioned(self, base):
        status, headers, health = _get(f"{base}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert "Deprecation" not in headers


class TestRemovedAliases:
    def test_post_alias_is_gone_with_envelope(self, base):
        status, envelope = _error(
            f"{base}/estimate", {"graph": "g", "paths": ["1/2", "2"]}
        )
        assert status == 404
        assert set(envelope) >= ENVELOPE_KEYS
        assert envelope["code"] == "not_found"
        assert f"{API_PREFIX}/estimate" in envelope["error"]

    def test_get_alias_is_gone_with_envelope(self, base):
        status, envelope = _error(f"{base}/stats")
        assert status == 404
        assert envelope["code"] == "not_found"
        assert f"{API_PREFIX}/stats" in envelope["error"]

    def test_alias_usage_is_still_counted(self, base, server):
        _error(f"{base}/stats")
        _error(f"{base}/graphs")
        _error(f"{base}/evict", {"graph": "g"})
        metrics = urllib.request.urlopen(f"{base}/metrics", timeout=30).read()
        text = metrics.decode("utf-8")
        # The series survives the alias removal so dashboards watching the
        # migration keep working — and now show stragglers hitting 404.
        assert "repro_http_deprecated_requests_total" in text
        assert 'repro_http_deprecated_requests_total{route="/stats"} 1' in text
        assert 'repro_http_deprecated_requests_total{route="/evict"} 1' in text

    def test_versioned_spelling_still_answers(self, base):
        status, _, answer = _post(
            f"{base}{API_PREFIX}/estimate", {"graph": "g", "paths": ["1/2", "2"]}
        )
        assert status == 200
        assert answer["count"] == 2


class TestErrorEnvelope:
    def test_unknown_graph(self, base):
        status, envelope = _error(
            f"{base}{API_PREFIX}/estimate", {"graph": "missing", "paths": ["1"]}
        )
        assert status == 404
        assert set(envelope) >= ENVELOPE_KEYS
        assert envelope["code"] == "unknown_graph"
        assert envelope["request_id"]

    def test_bad_request(self, base):
        status, envelope = _error(f"{base}{API_PREFIX}/estimate", {"graph": "g"})
        assert status == 400
        assert set(envelope) >= ENVELOPE_KEYS
        assert envelope["code"] == "bad_request"
        assert envelope["retry_after"] is None

    def test_invalid_path_is_bad_request(self, base):
        status, envelope = _error(
            f"{base}{API_PREFIX}/estimate", {"graph": "g", "paths": ["99/88"]}
        )
        assert status == 400
        assert set(envelope) >= ENVELOPE_KEYS


class TestClientSpeaksV1:
    def test_round_trip_and_request_id(self, server, client):
        values = client.estimate("g", ["1/2", "2"])
        expected = server.registry.get("g").estimate_batch(["1/2", "2"])
        assert np.allclose(values, expected)
        assert client.last_request_id

    def test_client_exposes_code_and_envelope(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.estimate("missing", ["1"])
        error = excinfo.value
        assert error.code == "unknown_graph"
        assert set(error.envelope) >= ENVELOPE_KEYS
        assert error.status == 404
