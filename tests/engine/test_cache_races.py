"""Cache races and debris: eviction vs. load, fetch vs. prune, temp sweep.

Pruning, remote adoption and loads all touch the same directory with no
coordination beyond atomic renames, so the invariant under test is simple:
a load concurrent with eviction returns ``None`` (clean miss) or a fully
valid artifact — never a crash, never a half-written file — and in-flight
temp files are invisible to the artifact globs but swept once stale.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.engine.remote import RemoteArtifactStore
from repro.graph.generators import zipf_labeled_graph
from repro.obs.metrics import MetricsRegistry
from repro.paths.catalog import SelectivityCatalog
from repro.serving.artifacts import make_artifact_server
from repro.testing import injector

CONFIG = EngineConfig(max_length=2, bucket_count=8)


@pytest.fixture(autouse=True)
def clean_injector():
    injector.reset()
    yield
    injector.reset()


@pytest.fixture()
def graph():
    return zipf_labeled_graph(30, 120, 3, skew=1.0, seed=13, name="g")


@pytest.fixture()
def remote(tmp_path):
    server = make_artifact_server(
        tmp_path / "remote-store", port=0, metrics=MetricsRegistry()
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield RemoteArtifactStore(
            f"http://{host}:{port}", backoff_seconds=0.0, backoff_max_seconds=0.0
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestEvictionLoadRaces:
    def test_eviction_between_probe_and_open_is_clean_miss(
        self, tmp_path, graph, monkeypatch
    ):
        cache = ArtifactCache(tmp_path / "c")
        session = EstimationSession.build(graph, CONFIG, cache_dir=cache)
        key = session.stats.catalog_key
        real_load = SelectivityCatalog.load_npz.__func__

        def vanish_then_load(cls, path):
            # The artifact disappears between the existence probe and the
            # open — exactly what a racing prune produces.
            os.unlink(path)
            return real_load(cls, path)

        monkeypatch.setattr(SelectivityCatalog, "load_npz", classmethod(vanish_then_load))
        assert cache.load_catalog(key) is None
        assert cache.misses >= 1
        assert cache.quarantined == 0  # a vanished file is not corruption

    def test_prune_during_slow_load_never_crashes(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path / "c")
        session = EstimationSession.build(graph, CONFIG, cache_dir=cache)
        key = session.stats.catalog_key
        # Every load sleeps at the fault point while a pruner deletes the
        # artifacts underneath it.
        injector.arm("cache.load_catalog", delay=0.02, times=-1)
        results: list[object] = []
        errors: list[BaseException] = []

        def load():
            try:
                results.append(cache.load_catalog(key))
            except BaseException as exc:  # noqa: BLE001 - the test records
                errors.append(exc)

        loaders = [threading.Thread(target=load) for _ in range(4)]
        for thread in loaders:
            thread.start()
        cache.prune(0)
        for thread in loaders:
            thread.join(timeout=30)
        assert not errors
        for catalog in results:
            assert catalog is None or isinstance(catalog, SelectivityCatalog)

    def test_remote_adoption_racing_prune(self, tmp_path, graph, remote):
        # Seed the remote tier from one build, then repeatedly warm-start a
        # second cache while pruning it to zero from another thread.
        seeder = ArtifactCache(tmp_path / "seed", remote=remote)
        session = EstimationSession.build(graph, CONFIG, cache_dir=seeder)
        key = session.stats.catalog_key
        remote.flush(timeout=30)
        cache = ArtifactCache(tmp_path / "warm", remote=remote)
        errors: list[BaseException] = []
        stop = threading.Event()

        def pruner():
            while not stop.is_set():
                cache.prune(0)

        thread = threading.Thread(target=pruner)
        thread.start()
        try:
            for _ in range(10):
                try:
                    catalog = cache.load_catalog(key)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)
                    break
                if catalog is not None:
                    assert catalog.domain_size == session.catalog.domain_size
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors
        assert cache.temp_files() == []  # adoption never leaks temps


class TestTempDebris:
    def test_stale_temp_swept_at_init(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        stale = root / ".catalog-k.npz.999.deadbeef.tmp"
        stale.write_bytes(b"half-written")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        young = root / ".histogram-k.json.999.cafe.tmp"
        young.write_bytes(b"live writer")
        cache = ArtifactCache(root)
        assert not stale.exists()
        assert young.exists()  # may belong to a live writer: left alone
        assert cache.temp_cleaned == 1

    def test_temp_files_surface_and_globs_skip_them(self, tmp_path, graph):
        cache = ArtifactCache(tmp_path / "c")
        EstimationSession.build(graph, CONFIG, cache_dir=cache)
        before = set(cache.artifact_files())
        debris = cache.root / ".catalog-k.npz.1.ff.tmp"
        debris.write_bytes(b"x")
        # Foreign debris that *does* match an artifact glob pattern is
        # still excluded by the explicit .tmp filter.
        foreign = cache.root / "catalog-k.tmp.npy"
        foreign.write_bytes(b"x")
        assert debris in cache.temp_files()
        assert set(cache.artifact_files()) == before
        assert cache.total_bytes() == sum(
            path.stat().st_size for path in before
        )


class TestRemoteSidecarBackfill:
    def test_warm_start_backfills_mmap_sidecars(self, tmp_path, remote):
        graph = zipf_labeled_graph(40, 160, 3, skew=1.0, seed=5, name="g5")
        config = EngineConfig(max_length=6, bucket_count=8)
        seeder = ArtifactCache(tmp_path / "seed", remote=remote)
        cold = EstimationSession.build(graph, config, cache_dir=seeder)
        key = cold.stats.catalog_key
        assert seeder.sparse_indices_path(key).exists()
        remote.flush(timeout=30)
        # The remote tier ships only the primaries — sidecars are local.
        remote_names = {row["name"] for row in remote.list_artifacts()}
        assert f"catalog-{key}.npz" in remote_names
        assert f"catalog-{key}.nzi.npy" not in remote_names
        warm_cache = ArtifactCache(tmp_path / "warm", remote=remote)
        warm = EstimationSession.build(
            graph, config, cache_dir=warm_cache, mmap=True
        )
        assert warm.stats.catalog_from_cache is True
        # First warm start fetched the npz and backfilled the sidecar ...
        assert warm_cache.sparse_indices_path(key).exists()
        # ... so the next one maps pages instead of decompressing.
        second = EstimationSession.build(
            graph, config, cache_dir=warm_cache, mmap=True
        )
        assert second.catalog.mmap_backed
        assert np.allclose(
            second.estimate_batch(["1/2/3", "2/2"]),
            cold.estimate_batch(["1/2/3", "2/2"]),
        )
