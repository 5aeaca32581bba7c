"""The remote artifact tier: server, client store, and cache integration.

Covers the fault-tolerance contract end to end: verified fetches (payload
digests checked before adoption), quarantine of corrupt remote payloads,
single-flight download dedup, the per-remote circuit breaker (dead store
fast-fails to cold build), best-effort pushes, and the artifact server's
validation surface (names, body cap, digest-verified uploads).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.engine.remote import RemoteArtifactStore
from repro.exceptions import RemoteStoreError
from repro.graph.generators import zipf_labeled_graph
from repro.obs.metrics import MetricsRegistry
from repro.paths.catalog import SelectivityCatalog
from repro.serving.artifacts import make_artifact_server
from repro.testing import bitflip_bytes, injector, truncate_bytes

CONFIG = EngineConfig(max_length=2, bucket_count=8)


@pytest.fixture(autouse=True)
def clean_injector():
    injector.reset()
    yield
    injector.reset()


@pytest.fixture()
def graph():
    return zipf_labeled_graph(30, 120, 3, skew=1.0, seed=11, name="g")


@pytest.fixture()
def server(tmp_path):
    store_dir = tmp_path / "store"
    server = make_artifact_server(
        store_dir, port=0, metrics=MetricsRegistry(), max_body_bytes=64 * 2**10
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture()
def url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture()
def catalog_file(tmp_path, graph):
    catalog = SelectivityCatalog.from_graph(graph, 2)
    path = tmp_path / "catalog-deadbeef-cafe.npz"
    catalog.save_npz(path)
    return path


def _store(url, **overrides):
    options = {
        "timeout": 5.0,
        "max_retries": 1,
        "backoff_seconds": 0.0,
        "backoff_max_seconds": 0.0,
    }
    options.update(overrides)
    return RemoteArtifactStore(url, **options)


class TestArtifactServer:
    def test_put_get_head_round_trip(self, url, catalog_file):
        store = _store(url)
        assert store.push(catalog_file) is True
        probe = store.head_artifact(catalog_file.name)
        assert probe is not None
        assert probe["bytes"] == catalog_file.stat().st_size
        assert probe["sha256"] == hashlib.sha256(
            catalog_file.read_bytes()
        ).hexdigest()
        rows = store.list_artifacts()
        assert [row["name"] for row in rows] == [catalog_file.name]

    def test_head_absent_artifact_is_none(self, url):
        assert _store(url).head_artifact("catalog-missing.npz") is None

    def test_invalid_names_are_rejected(self, url):
        request = urllib.request.Request(
            f"{url}/v1/artifacts/..%2Fescape.npz", data=b"x", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404
        envelope = json.loads(excinfo.value.read().decode("utf-8"))
        assert set(envelope) >= {"error", "code", "retry_after", "request_id"}

    def test_digest_mismatch_put_is_refused(self, url, server):
        request = urllib.request.Request(
            f"{url}/v1/artifacts/catalog-x.npz",
            data=b"payload",
            method="PUT",
            headers={"X-Content-Sha256": "0" * 64},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read().decode("utf-8"))
        assert envelope["code"] == "digest_mismatch"
        assert not (server.directory / "catalog-x.npz").exists()

    def test_post_is_405_and_health_probes_answer(self, url):
        request = urllib.request.Request(
            f"{url}/v1/artifacts/catalog-x.npz", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 405
        with urllib.request.urlopen(f"{url}/healthz", timeout=5) as response:
            assert json.loads(response.read())["status"] == "ok"
        with urllib.request.urlopen(f"{url}/readyz", timeout=5) as response:
            assert json.loads(response.read())["writable"] is True
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            assert b"repro_artifact_requests_total" in response.read()


class TestRemoteFetch:
    def test_fetch_hit_adopts_verified_copy(self, url, catalog_file, tmp_path):
        store = _store(url)
        store.push(catalog_file)
        target = tmp_path / "local" / catalog_file.name
        target.parent.mkdir()
        assert store.fetch(catalog_file.name, target) == "hit"
        assert target.read_bytes() == catalog_file.read_bytes()
        assert store.hits == 1

    def test_fetch_miss_on_absent_artifact(self, url, tmp_path):
        store = _store(url)
        outcome = store.fetch("catalog-nope.npz", tmp_path / "catalog-nope.npz")
        assert outcome == "miss"
        assert not (tmp_path / "catalog-nope.npz").exists()

    def test_dead_store_is_unavailable_never_raises(self, tmp_path):
        store = _store("http://127.0.0.1:9")  # discard port: nothing listens
        outcome = store.fetch("catalog-x.npz", tmp_path / "catalog-x.npz")
        assert outcome == "unavailable"

    @pytest.mark.parametrize("damage", [truncate_bytes, bitflip_bytes])
    def test_corrupt_payload_is_parked_not_adopted(
        self, url, catalog_file, tmp_path, damage
    ):
        store = _store(url)
        store.push(catalog_file)
        injector.arm("remote.fetch", mutate=damage, times=1)
        target = tmp_path / "local" / catalog_file.name
        target.parent.mkdir()
        assert store.fetch(catalog_file.name, target) == "corrupt"
        assert not target.exists()
        parked = target.with_name(target.name + ".corrupt")
        assert parked.exists()
        # No temp debris either: the only sibling is the parked payload.
        assert list(target.parent.iterdir()) == [parked]

    def test_fetch_retries_transient_error_then_succeeds(
        self, url, catalog_file, tmp_path
    ):
        store = _store(url, max_retries=2)
        store.push(catalog_file)
        injector.arm(
            "remote.fetch", error=ConnectionResetError("mid-flight"), times=1
        )
        target = tmp_path / "local" / catalog_file.name
        target.parent.mkdir()
        assert store.fetch(catalog_file.name, target) == "hit"
        assert injector.fired("remote.fetch") >= 1

    def test_single_flight_deduplicates_concurrent_fetches(
        self, url, catalog_file, tmp_path
    ):
        store = _store(url)
        store.push(catalog_file)
        release = threading.Event()
        original_download = store._download

        calls = []

        def slow_download(name):
            calls.append(name)
            release.wait(timeout=10)
            return original_download(name)

        store._download = slow_download
        target = tmp_path / "local" / catalog_file.name
        target.parent.mkdir()
        outcomes = []
        threads = [
            threading.Thread(
                target=lambda: outcomes.append(
                    store.fetch(catalog_file.name, target)
                )
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(outcomes) == ["hit"] * 4
        assert len(calls) == 1  # one download, three waiters adopt the file


class TestCircuitBreaker:
    def test_threshold_failures_trip_then_fast_fail(self, tmp_path):
        store = _store(
            "http://127.0.0.1:9",
            breaker_threshold=2,
            breaker_reset_seconds=60.0,
        )
        for _ in range(2):
            assert store.fetch("catalog-x.npz", tmp_path / "x.npz") == "unavailable"
        assert store.breaker_open is True
        started = time.perf_counter()
        outcome = store.fetch("catalog-x.npz", tmp_path / "x.npz")
        elapsed = time.perf_counter() - started
        assert outcome == "unavailable"
        assert elapsed < 0.010  # fast-fail: no socket, just a clock read
        assert store.describe()["breaker_open"] is True

    def test_half_open_probe_closes_on_recovery(self, url, catalog_file, tmp_path):
        store = _store(url, breaker_threshold=1, breaker_reset_seconds=0.05)
        store.push(catalog_file)
        injector.arm("remote.fetch", error=ConnectionError("down"), times=2)
        assert store.fetch(catalog_file.name, tmp_path / "a.npz") == "unavailable"
        assert store.breaker_open is True
        time.sleep(0.06)  # past the reset window: next call is the probe
        assert store.fetch(catalog_file.name, tmp_path / "b.npz") == "hit"
        assert store.breaker_open is False

    def test_push_respects_open_breaker(self, catalog_file):
        store = _store(
            "http://127.0.0.1:9", breaker_threshold=1, breaker_reset_seconds=60.0
        )
        assert store.push(catalog_file) is False  # trips the breaker
        started = time.perf_counter()
        assert store.push(catalog_file) is False  # fast-fail
        assert time.perf_counter() - started < 0.010

    def test_unreadable_push_leaves_the_probe_to_the_next_call(self, url, catalog_file, tmp_path):
        store = _store(url, max_retries=0, breaker_threshold=1, breaker_reset_seconds=0.05)
        injector.arm("remote.push", error=ConnectionError("down"), times=1)
        assert store.push(catalog_file) is False  # trips the breaker
        time.sleep(0.06)  # past the reset window: next call is the probe
        assert store.push(tmp_path / "missing.npz") is False  # local read fails
        assert store.push(catalog_file) is True  # ...and the probe was still free
        assert store.breaker_open is False


class TestPush:
    def test_push_failure_is_counted_never_raised(self, catalog_file):
        store = _store("http://127.0.0.1:9", breaker_threshold=0)
        assert store.push(catalog_file) is False
        assert store.push_failures == 1

    def test_push_async_flush_completes_the_upload(self, url, catalog_file):
        store = _store(url)
        store.push_async(catalog_file)
        store.flush(timeout=10)
        assert store.pushes == 1
        assert store.head_artifact(catalog_file.name) is not None

    def test_push_faults_fire_per_attempt(self, url, catalog_file):
        store = _store(url, max_retries=0)
        injector.arm("remote.push", error=ConnectionError("down"), times=1)
        assert store.push(catalog_file) is False
        assert injector.fired("remote.push") == 1


class TestCacheIntegration:
    def test_warm_start_from_remote_tier(self, url, graph, tmp_path):
        builder = ArtifactCache(tmp_path / "a", remote=_store(url))
        first = EstimationSession.build(graph, CONFIG, cache_dir=builder)
        assert first.stats.catalog_from_cache is False
        builder.remote.flush(timeout=10)
        warm_cache = ArtifactCache(tmp_path / "b", remote=_store(url))
        second = EstimationSession.build(graph, CONFIG, cache_dir=warm_cache)
        assert second.stats.catalog_from_cache is True
        assert warm_cache.remote_hits >= 1
        paths = ["1/2", "2", "3/3"]
        assert np.allclose(
            first.estimate_batch(paths), second.estimate_batch(paths)
        )

    def test_corrupt_remote_payload_quarantined_and_rebuilt(
        self, url, graph, tmp_path
    ):
        builder = ArtifactCache(tmp_path / "a", remote=_store(url))
        EstimationSession.build(graph, CONFIG, cache_dir=builder)
        builder.remote.flush(timeout=10)
        injector.arm(
            "remote.fetch",
            mutate=bitflip_bytes,
            times=-1,
            match=lambda ctx: str(ctx.get("name", "")).startswith("catalog-"),
        )
        cache = ArtifactCache(tmp_path / "b", remote=_store(url))
        session = EstimationSession.build(graph, CONFIG, cache_dir=cache)
        assert session.stats.catalog_from_cache is False  # never loaded
        assert cache.quarantined >= 1
        corrupt = list((tmp_path / "b").glob("*.corrupt"))
        assert corrupt  # the damaged payload is parked for inspection
        assert cache.temp_files() == []  # and no temp debris remains

    def test_remote_outage_degrades_to_cold_build(self, graph, tmp_path):
        cache = ArtifactCache(
            tmp_path / "a", remote=_store("http://127.0.0.1:9")
        )
        session = EstimationSession.build(graph, CONFIG, cache_dir=cache)
        assert session.stats.catalog_from_cache is False
        assert session.domain_size > 0

    def test_operator_surfaces_raise_on_dead_store(self):
        store = _store("http://127.0.0.1:9")
        with pytest.raises(RemoteStoreError):
            store.head_artifact("catalog-x.npz")
        with pytest.raises(RemoteStoreError):
            store.list_artifacts()
