"""Tests for the catalog artifact (the one npz format) in the engine cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.exceptions import PathError
from repro.paths.catalog import CATALOG_NPZ_VERSION, SelectivityCatalog


class TestNpzRoundTrip:
    def test_round_trip(self, small_catalog, tmp_path):
        target = tmp_path / "catalog.npz"
        small_catalog.save_npz(target)
        loaded = SelectivityCatalog.load_npz(target)
        assert loaded.labels == small_catalog.labels
        assert loaded.max_length == small_catalog.max_length
        assert loaded.graph_name == small_catalog.graph_name
        assert np.array_equal(
            loaded.frequency_vector(), small_catalog.frequency_vector()
        )

    def test_load_sniffs_npz(self, small_catalog, tmp_path):
        # The archive is recognised by content, whatever the file name.
        target = tmp_path / "catalog.bin"
        small_catalog.save_npz(target)
        loaded = SelectivityCatalog.load_npz(target)
        assert np.array_equal(
            loaded.frequency_vector(), small_catalog.frequency_vector()
        )

    def test_version_mismatch_rejected(self, small_catalog, tmp_path):
        target = tmp_path / "catalog.npz"
        small_catalog.save_npz(target)
        with np.load(target) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["format_version"] = np.asarray(CATALOG_NPZ_VERSION + 1, dtype=np.int64)
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PathError):
            SelectivityCatalog.load_npz(target)


class TestArrayOwnership:
    def test_dense_vector_input_is_converted(self):
        frequencies = np.arange(6, dtype=np.int64)
        catalog = SelectivityCatalog(["a", "b"], 2, frequencies)
        frequencies[0] = 99  # caller's array must stay writable
        assert catalog.selectivity("a") == 0
        assert catalog.nonzero_arrays()[0].tolist() == [1, 2, 3, 4, 5]

    def test_from_nonzeros_no_copy_adopts(self):
        indices = np.array([1, 4], dtype=np.int64)
        values = np.array([7, 9], dtype=np.int64)
        catalog = SelectivityCatalog.from_nonzeros(["a", "b"], 2, indices, values, copy=False)
        assert catalog.nonzero_arrays()[0] is indices
        with pytest.raises(ValueError):
            indices[0] = 99  # adopted arrays are frozen


class TestCacheFallback:
    def test_legacy_json_artifact_is_a_miss(self, tmp_path):
        # A cache written by an old release may hold catalog-<key>.json; it
        # is no longer read, so the key misses and the session builds cold.
        cache = ArtifactCache(tmp_path)
        (tmp_path / "catalog-k.json").write_text("{}", encoding="utf-8")
        assert cache.load_catalog("k") is None
        assert cache.hits == 0 and cache.misses == 1

    def test_npz_preferred_over_legacy(self, small_catalog, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_catalog("k", small_catalog)
        # A stale legacy file next to the npz artifact is ignored, and no
        # maintenance glob counts it: it is left for an operator to delete.
        stale = tmp_path / "catalog-k.json"
        stale.write_text("{broken", encoding="utf-8")
        assert cache.load_catalog("k") is not None
        assert stale not in cache.artifact_files()
        assert cache.clear() == 1
        assert stale.exists()

    def test_truncated_npz_raises_engine_error(self, small_catalog, tmp_path):
        from repro.exceptions import EngineError

        cache = ArtifactCache(tmp_path)
        # Valid zip magic followed by garbage: np.load raises BadZipFile,
        # which must surface as the documented EngineError.
        cache.catalog_path("k").write_bytes(b"PK\x03\x04corrupt")
        with pytest.raises(EngineError):
            cache.load_catalog("k")

    def test_stored_artifact_is_npz(self, small_catalog, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store_catalog("k", small_catalog)
        assert path.suffix == ".npz"
        with open(path, "rb") as handle:
            assert handle.read(2) == b"PK"

    def test_clear_removes_both_forms(self, small_catalog, tmp_path):
        # The compressed archive and its uncompressed mmap sidecar pair.
        cache = ArtifactCache(tmp_path)
        cache.store_catalog("k", small_catalog, mmap_sidecar=True)
        assert len(cache.artifact_files()) == 3
        assert cache.clear() == 3
        assert cache.artifact_files() == []


class TestSessionUsesColumnarArtifact:
    def test_warm_start_from_npz(self, small_graph, tmp_path):
        config = EngineConfig(max_length=2, bucket_count=8)
        cold = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert any(path.suffix == ".npz" for path in tmp_path.glob("catalog-*"))
        warm = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        assert np.array_equal(
            warm.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )

    def test_catalog_format_version_in_cache_key(self):
        # The config digest must cover the artifact format so a layout change
        # re-keys the artifact instead of half-trusting a stale entry.
        fields = EngineConfig(max_length=3).catalog_fields()
        assert fields == {"max_length": 3, "catalog_format": 4}
