"""Tests for artifact-cache eviction, pruning and memory-mapped loads."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.exceptions import EngineError
from repro.graph.generators import zipf_labeled_graph


def _graph(seed: int = 5, labels: int = 3):
    return zipf_labeled_graph(40, 160, labels, skew=1.0, seed=seed, name=f"g{seed}")


def _build(cache, *, seed: int = 5, max_length: int = 3, mmap: bool = False):
    config = EngineConfig(max_length=max_length, bucket_count=8)
    return EstimationSession.build(_graph(seed), config, cache_dir=cache, mmap=mmap)


class TestEvict:
    def test_evict_removes_exactly_one_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = _build(cache, seed=1)
        second = _build(cache, seed=2)
        assert first.stats.catalog_key != second.stats.catalog_key
        removed = cache.evict(first.stats.catalog_key)
        assert removed >= 1
        assert not cache.catalog_path(first.stats.catalog_key).exists()
        assert cache.catalog_path(second.stats.catalog_key).exists()
        assert cache.evict("no-such-key") == 0

    def test_total_bytes_tracks_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.total_bytes() == 0
        _build(cache)
        total = cache.total_bytes()
        assert total == sum(path.stat().st_size for path in cache.artifact_files())
        assert total > 0


class TestPrune:
    def test_prune_within_budget_is_a_no_op(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _build(cache)
        assert cache.prune(cache.total_bytes()) == []

    def test_prune_zero_clears_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _build(cache)
        removed = cache.prune(0)
        assert len(removed) == len(set(removed)) >= 3
        assert cache.total_bytes() == 0

    def test_prune_negative_budget_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(EngineError):
            cache.prune(-1)

    def test_prune_removes_least_recently_used_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = _build(cache, seed=1)
        second = _build(cache, seed=2)
        old = time.time() - 3600
        for key in (first.stats.catalog_key,):
            os.utime(cache.catalog_path(key), (old, old))
        for key in (first.stats.histogram_key,):
            os.utime(cache.histogram_path(key), (old, old))
            os.utime(cache.positions_path(key), (old, old))
        fresh_bytes = sum(
            path.stat().st_size
            for path in (
                cache.catalog_path(second.stats.catalog_key),
                cache.histogram_path(second.stats.histogram_key),
                cache.positions_path(second.stats.histogram_key),
            )
        )
        removed = cache.prune(fresh_bytes)
        # Only the artificially aged artifacts of the first session go.
        assert {path.name for path in removed} == {
            cache.catalog_path(first.stats.catalog_key).name,
            cache.histogram_path(first.stats.histogram_key).name,
            cache.positions_path(first.stats.histogram_key).name,
        }
        assert cache.load_catalog(second.stats.catalog_key) is not None

    def test_loads_refresh_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = _build(cache)
        key = session.stats.catalog_key
        old = time.time() - 3600
        os.utime(cache.catalog_path(key), (old, old))
        before = cache.catalog_path(key).stat().st_mtime
        assert cache.load_catalog(key) is not None
        after = cache.catalog_path(key).stat().st_mtime
        assert after > before


class TestMmap:
    def test_sidecar_written_for_large_domains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        # |L|=3, k=6: domain 1092 >= 3^6 = 729 -> sidecar expected.
        session = _build(cache, max_length=6)
        assert cache.sparse_indices_path(session.stats.catalog_key).exists()
        assert cache.sparse_values_path(session.stats.catalog_key).exists()

    def test_no_sidecar_for_small_domains(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = _build(cache, max_length=3)
        assert not cache.sparse_indices_path(session.stats.catalog_key).exists()

    def test_mmap_load_equals_regular_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = _build(cache, max_length=6)
        warm = _build(cache, max_length=6, mmap=True)
        assert all(isinstance(array, np.memmap) for array in warm.catalog.nonzero_arrays())
        assert warm.stats.extra.get("catalog_mmap") is True
        assert np.array_equal(warm.catalog.frequency_vector(), cold.catalog.frequency_vector())
        paths = ["1/2/3", "2/2", "1/1/1/1/1/1"]
        assert np.allclose(warm.estimate_batch(paths), cold.estimate_batch(paths))
        assert warm.catalog.selectivity("1/2") == cold.catalog.selectivity("1/2")
        # The memory accounting treats mapped pages as reclaimable.
        assert warm.memory_bytes() < cold.memory_bytes()

    def test_mmap_request_without_sidecar_falls_back(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = _build(cache, max_length=3)  # small domain: no sidecar
        warm = _build(cache, max_length=3, mmap=True)
        assert not warm.catalog.mmap_backed
        assert warm.stats.catalog_from_cache is True
        assert np.array_equal(
            warm.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )

    def test_forced_sidecar_roundtrip(self, tmp_path):
        from repro.paths.catalog import SelectivityCatalog

        cache = ArtifactCache(tmp_path)
        catalog = SelectivityCatalog.from_graph(_graph(), 2)
        cache.store_catalog("forced", catalog, mmap_sidecar=True)
        loaded = cache.load_catalog("forced", mmap=True)
        assert loaded.mmap_backed
        assert np.array_equal(loaded.frequency_vector(), catalog.frequency_vector())
        assert loaded.labels == catalog.labels
        assert loaded.max_length == catalog.max_length


def test_no_sidecar_for_sparse_catalogs(tmp_path):
    from repro.engine import ArtifactCache
    from repro.paths.catalog import SelectivityCatalog

    cache = ArtifactCache(tmp_path)
    # |L|=2, k=7: domain 254 >= 2^6, but a catalog with no nonzero path has
    # nothing to memory-map (a zero-length array cannot be), so the sidecar
    # pair is suppressed and the mmap load falls back to the npz.
    sparse = SelectivityCatalog(["a", "b"], 7, {"a": 0, "a/b": 0})
    assert sparse.nnz == 0
    cache.store_catalog("sparse", sparse)
    assert not cache.sparse_indices_path("sparse").exists()
    loaded = cache.load_catalog("sparse", mmap=True)
    assert not loaded.mmap_backed
    assert loaded.selectivity("a") == 0 and loaded.selectivity("b/b") == 0
