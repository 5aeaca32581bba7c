"""Tests for the columnar catalog artifact (npz format + JSON fallback)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.exceptions import PathError
from repro.paths.catalog import CATALOG_NPZ_VERSION, SelectivityCatalog
from repro.paths.label_path import LabelPath


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
        # ``load`` must accept both formats regardless of file name.
        target = tmp_path / "catalog.bin"
        small_catalog.save_npz(target)
        loaded = SelectivityCatalog.load(target)
        assert np.array_equal(
            loaded.frequency_vector(), small_catalog.frequency_vector()
        )

    def test_sparse_catalog_round_trips_mask(self, tmp_path):
        sparse = SelectivityCatalog(["a", "b"], 2, {"a": 3, "a/b": 1})
        target = tmp_path / "sparse.npz"
        sparse.save_npz(target)
        loaded = SelectivityCatalog.load_npz(target)
        assert len(loaded) == 2
        assert LabelPath.parse("a/b") in loaded
        assert LabelPath.parse("b/b") not in loaded
        assert loaded.selectivity("b/b") == 0

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

    def test_npz_fraction_of_json_at_scale(self, tmp_path):
        # |L|=6, k=4 (1554 paths) with a realistic mostly-sparse frequency
        # profile; the compressed columnar form must be at most a quarter of
        # the path-keyed JSON (the benchmark floor enforces the same bound).
        rng = np.random.default_rng(3)
        frequencies = np.where(
            rng.random(1554) < 0.15, rng.integers(0, 5000, 1554), 0
        ).astype(np.int64)
        catalog = SelectivityCatalog.from_frequencies(
            [str(i) for i in range(1, 7)], 4, frequencies, graph_name="size"
        )
        json_path = tmp_path / "catalog.json"
        npz_path = tmp_path / "catalog.npz"
        catalog.save(json_path)
        catalog.save_npz(npz_path)
        assert npz_path.stat().st_size <= 0.25 * json_path.stat().st_size


class TestArrayOwnership:
    def test_from_frequencies_default_copies(self):
        frequencies = np.arange(6, dtype=np.int64)
        catalog = SelectivityCatalog.from_frequencies(["a", "b"], 2, frequencies)
        frequencies[0] = 99  # caller's array must stay writable
        assert catalog.selectivity("a") == 0

    def test_from_frequencies_no_copy_adopts(self):
        frequencies = np.arange(6, dtype=np.int64)
        catalog = SelectivityCatalog.from_frequencies(
            ["a", "b"], 2, frequencies, copy=False
        )
        assert catalog.frequency_vector() is frequencies
        with pytest.raises(ValueError):
            frequencies[0] = 99  # adopted arrays are frozen


class TestCacheFallback:
    def test_legacy_json_artifact_still_loads(self, small_catalog, tmp_path):
        # A cache written by a pre-columnar release holds catalog-<key>.json;
        # the npz-first loader must fall back to it.
        cache = ArtifactCache(tmp_path)
        small_catalog.save(cache.legacy_catalog_path("k"))
        loaded = cache.load_catalog("k")
        assert loaded is not None
        assert cache.hits == 1 and cache.misses == 0
        assert np.array_equal(
            loaded.frequency_vector(), small_catalog.frequency_vector()
        )

    def test_npz_preferred_over_legacy(self, small_catalog, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_catalog("k", small_catalog)
        # Corrupt legacy file next to the valid npz artifact: must be ignored.
        cache.legacy_catalog_path("k").write_text("{broken", encoding="utf-8")
        loaded = cache.load_catalog("k")
        assert loaded is not None

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
        cache = ArtifactCache(tmp_path)
        cache.store_catalog("k", small_catalog)
        small_catalog.save(cache.legacy_catalog_path("old"))
        assert cache.clear() == 2
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

    def test_warm_start_from_legacy_json(self, small_graph, tmp_path):
        # Simulate a cache written by a pre-columnar release: the catalog
        # lives as JSON under the *old* key (no catalog_format field).
        from repro.engine import config_digest, graph_digest

        config = EngineConfig(max_length=2, bucket_count=8)
        cold = EstimationSession.build(small_graph, config)
        cache = ArtifactCache(tmp_path)
        legacy_key = (
            f"{graph_digest(small_graph)[:24]}"
            f"-{config_digest(config.legacy_catalog_fields())}"
        )
        cold.catalog.save(cache.legacy_catalog_path(legacy_key))
        warm = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        assert np.array_equal(
            warm.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )
        # The legacy hit is upgraded to the columnar artifact in place, so
        # the next start takes the npz fast path.
        assert cache.catalog_path(warm.stats.catalog_key).exists()

    def test_catalog_format_version_in_cache_key(self):
        # The config digest must cover the artifact format so a layout change
        # re-keys the artifact instead of half-trusting a stale entry, and
        # the requested storage mode so dense and sparse sessions never
        # alias one artifact.
        fields = EngineConfig(max_length=3).catalog_fields()
        assert fields.get("catalog_format") == 3
        assert fields.get("storage") == "auto"
        sparse_fields = EngineConfig(max_length=3, storage="sparse").catalog_fields()
        assert sparse_fields.get("storage") == "sparse"
        assert fields != sparse_fields

    def test_json_artifact_content_is_legacy_schema(self, small_catalog, tmp_path):
        # Guards the fallback contract: ``save`` still writes the exact
        # pre-columnar JSON schema.
        target = tmp_path / "catalog.json"
        small_catalog.save(target)
        document = json.loads(target.read_text(encoding="utf-8"))
        assert set(document) == {
            "graph_name",
            "labels",
            "max_length",
            "selectivities",
        }
        assert document["selectivities"]["1"] == small_catalog.selectivity("1")
