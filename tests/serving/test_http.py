"""Round-trip tests for the stdlib HTTP endpoint and client."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import EngineConfig, EstimationSession
from repro.exceptions import ServingError
from repro.graph.generators import zipf_labeled_graph
from repro.serving import ServiceClient, SessionRegistry, make_server

CONFIG = EngineConfig(max_length=2, bucket_count=8)


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
def client(server):
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}", timeout=30.0)


class TestRoundTrip:
    def test_healthz_lists_graphs(self, client):
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["graphs"] == ["g"]

    def test_estimate_matches_direct_session(self, server, client):
        paths = ["1/2", "2", "3/3"]
        estimates = client.estimate("g", paths)
        expected = server.registry.get("g").estimate_batch(paths)
        assert np.allclose(estimates, expected)

    def test_single_path_field_accepted(self, server, client):
        document = client._request("/v1/estimate", {"graph": "g", "path": "1/2"})
        expected = server.registry.get("g").estimate("1/2")
        assert document["count"] == 1
        assert document["estimates"][0] == pytest.approx(expected)

    def test_warm_then_stats_reflect_traffic(self, client):
        build = client.warm("g")
        assert build["domain_size"] > 0
        client.estimate("g", ["1/2", "2"])
        stats = client.stats()
        assert stats["scheduler"]["requests_total"] >= 1
        assert stats["scheduler"]["batch_paths_total"] >= 2
        assert stats["registry"]["sessions_resident"] == 1

    def test_graphs_and_evict(self, client):
        client.warm("g")
        rows = client.graphs()
        assert rows[0]["name"] == "g" and rows[0]["built"] is True
        assert set(rows[0]) == {
            "name",
            "built",
            "max_length",
            "ordering",
            "bucket_count",
            "domain_size",
            "memory_bytes",
            "circuit",
            "consecutive_build_failures",
        }
        assert client.evict("g") is True
        assert client.evict("g") is False
        rows = client.graphs()
        assert rows[0]["built"] is False

    def test_concurrent_http_clients_agree_with_direct_batch(self, server, client):
        session = server.registry.get("g")
        paths = ["1/2", "2", "3/3", "1", "2/1", "3"] * 3
        results: dict[int, float] = {}
        errors = []

        def fire(position, path):
            try:
                results[position] = client.estimate("g", [path])[0]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=fire, args=(position, path))
            for position, path in enumerate(paths)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = session.estimate_batch(paths)
        got = [results[position] for position in range(len(paths))]
        assert np.allclose(got, expected)


class TestUpdateRoute:
    def test_update_swaps_and_keeps_serving(self, server, client):
        old_session = server.registry.get("g")
        edge = next(iter(old_session.graph.edges()))
        row = client.update("g", remove=[list(edge)])
        assert row["built"] is True
        assert row["removals"] == 1
        assert row["graph"] == "g"
        new_session = server.registry.get("g")
        assert new_session is not old_session
        cold = EstimationSession.build(new_session.graph.copy(), CONFIG)
        paths = ["1/2", "2", "3/3"]
        assert np.allclose(client.estimate("g", paths), cold.estimate_batch(paths))

    def test_update_unbuilt_graph_stays_lazy(self, server, client):
        row = client.update("g", add=[["extra-u", "1", "extra-v"]])
        assert row["built"] is False
        assert row["additions"] == 1
        assert client.graphs()[0]["built"] is False

    def test_update_unknown_graph_is_404(self, client):
        with pytest.raises(ServingError, match="404"):
            client.update("missing", add=[["u", "1", "v"]])

    def test_update_empty_delta_is_400(self, client):
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/update", {"graph": "g"})

    def test_update_malformed_delta_is_400(self, client):
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/update", {"graph": "g", "add": "not-a-list"})
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/update", {"graph": "g", "add": [["u", "1"]]})
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/update", {"graph": "g", "add": [42]})
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/update", {"graph": "g", "add": [[["x"], "1", "y"]]})


class TestErrors:
    def test_unknown_graph_is_404(self, client):
        with pytest.raises(ServingError, match="404"):
            client.estimate("missing", ["1/2"])
        with pytest.raises(ServingError, match="404"):
            client.warm("missing")
        with pytest.raises(ServingError, match="404"):
            client.evict("missing")

    def test_invalid_path_is_400(self, client):
        with pytest.raises(ServingError, match="400"):
            client.estimate("g", ["99/88"])

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServingError, match="404"):
            client._request("/nope")

    def test_malformed_body_is_400(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode("utf-8"))

    def test_missing_paths_is_400(self, client):
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/estimate", {"graph": "g"})
        with pytest.raises(ServingError, match="400"):
            client._request("/v1/estimate", {"graph": "g", "paths": []})

    def test_non_object_body_is_400(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate",
            data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "must be an object" in body["error"]

    def test_closed_scheduler_is_503(self, server, client):
        client.warm("g")
        server.scheduler.close()
        with pytest.raises(ServingError, match="503"):
            client.estimate("g", ["1/2"])

    def test_backpressure_queue_full_is_503(self):
        """A full scheduler queue maps to HTTP 503 for the overflowing client.

        The worker is pinned inside a build whose loader blocks on an event;
        requests then pile up to ``max_pending`` and the next one overflows.
        """
        release = threading.Event()
        started = threading.Event()

        def slow_loader():
            started.set()
            release.wait(timeout=30)
            return zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="slow")

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("slow", loader=slow_loader)
        server = make_server(
            registry, port=0, window_seconds=0.0, max_pending=2
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
        fire_results: list[object] = []

        def fire():
            try:
                fire_results.append(client.estimate("slow", ["1"]))
            except ServingError as exc:  # pragma: no cover - depends on timing
                fire_results.append(exc)

        try:
            # First request: the worker picks it up and blocks in the build.
            blocked = threading.Thread(target=fire, daemon=True)
            blocked.start()
            assert started.wait(timeout=30)
            # Fill the queue to max_pending while the worker is pinned.
            queued = [threading.Thread(target=fire, daemon=True) for _ in range(2)]
            for t in queued:
                t.start()
            deadline = 30.0
            while server.scheduler._queue.qsize() < 2 and deadline > 0:
                threading.Event().wait(0.01)
                deadline -= 0.01
            assert server.scheduler._queue.qsize() == 2
            # The next request overflows the bounded queue -> 503.
            with pytest.raises(ServingError, match="503"):
                client.estimate("slow", ["1"])
            stats = server.scheduler.stats.snapshot()
            assert stats["rejected_total"] >= 1
        finally:
            release.set()
            blocked.join(timeout=30)
            for t in queued:
                t.join(timeout=30)
            server.shutdown()
            server.close()
            thread.join(timeout=10)
