"""Self-healing artifact cache: corrupt artifacts quarantine and rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.engine import EngineConfig, EstimationSession
from repro.engine.cache import ArtifactCache
from repro.exceptions import EngineError
from repro.graph.generators import zipf_labeled_graph
from repro.testing import corrupt_file, injector

CONFIG = EngineConfig(max_length=2, bucket_count=8)
PATHS = ["1/2", "2", "3/3", "2/1"]


@pytest.fixture(autouse=True)
def _clean_injector():
    injector.reset()
    yield
    injector.reset()


@pytest.fixture()
def graph():
    return zipf_labeled_graph(30, 90, 3, skew=1.0, seed=11, name="heal")


def _build(graph, cache, **kwargs):
    return EstimationSession.build(graph, CONFIG, cache_dir=cache, **kwargs)


def _npz_members(path):
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name].copy() for name in archive.files}


class TestCatalogHealing:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_npz_is_quarantined_and_rebuilt(self, graph, tmp_path, mode):
        cache = ArtifactCache(tmp_path)
        session = _build(graph, cache)
        key = session.stats.catalog_key
        npz = cache.catalog_path(key)
        reference = session.estimate_batch(PATHS)
        clean_members = _npz_members(npz)

        corrupt_file(npz, mode=mode)
        # The cache itself still *detects* — healing is the session's job.
        with pytest.raises(EngineError, match="corrupt cached catalog"):
            cache.load_catalog(key)

        healed = _build(graph, cache)
        assert healed.stats.extra["catalog_quarantined"] >= 1
        assert cache.quarantined >= 1
        assert npz.with_name(npz.name + ".corrupt").exists()
        assert np.array_equal(healed.estimate_batch(PATHS), reference)
        # The rebuilt artifact carries identical content to the original.
        rebuilt_members = _npz_members(npz)
        assert rebuilt_members.keys() == clean_members.keys()
        for name in clean_members:
            assert np.array_equal(rebuilt_members[name], clean_members[name])

    def test_corrupt_mmap_sidecar_is_quarantined(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = _build(graph, cache)
        key = session.stats.catalog_key
        cache.store_catalog(key, session.catalog, mmap_sidecar=True)
        sidecar = cache.sparse_indices_path(key)
        assert sidecar.exists()
        reference = session.estimate_batch(PATHS)

        corrupt_file(sidecar, mode="truncate")
        healed = _build(graph, cache, mmap=True)
        assert healed.stats.extra["catalog_quarantined"] >= 1
        assert not sidecar.exists()
        assert np.array_equal(healed.estimate_batch(PATHS), reference)

    def test_injected_load_error_also_heals(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        reference = _build(graph, cache).estimate_batch(PATHS)
        error = EngineError("corrupt cached catalog (injected)")
        with injector.armed("cache.load_catalog", error=error, times=1):
            healed = _build(graph, cache)
        assert healed.stats.extra["catalog_quarantined"] >= 1
        assert np.array_equal(healed.estimate_batch(PATHS), reference)


class TestSidecarArtifacts:
    def test_corrupt_histogram_is_quarantined(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = _build(graph, cache)
        histograms = list(tmp_path.glob("histogram-*.json"))
        if not histograms:
            pytest.skip("this config caches no histogram artifact")
        reference = session.estimate_batch(PATHS)
        corrupt_file(histograms[0], mode="truncate")
        healed = _build(graph, cache)
        assert healed.stats.extra["histogram_quarantined"] >= 1
        assert np.array_equal(healed.estimate_batch(PATHS), reference)

    def test_corrupt_positions_is_quarantined(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = _build(graph, cache)
        positions = list(tmp_path.glob("positions-*.npy"))
        if not positions:
            pytest.skip("this config caches no position-table artifact")
        reference = session.estimate_batch(PATHS)
        corrupt_file(positions[0], mode="truncate")
        healed = _build(graph, cache)
        assert healed.stats.extra["positions_quarantined"] >= 1
        assert np.array_equal(healed.estimate_batch(PATHS), reference)


class TestQuarantineVisibility:
    def test_artifact_files_and_cache_list_skip_quarantined(
        self, graph, tmp_path, capsys
    ):
        cache = ArtifactCache(tmp_path)
        session = _build(graph, cache)
        npz = cache.catalog_path(session.stats.catalog_key)
        corrupt_file(npz, mode="truncate")
        _build(graph, cache)

        marked = cache.quarantined_files()
        assert marked and all(path.suffix == ".corrupt" for path in marked)
        listed = cache.artifact_files()
        assert listed and not any(path.suffix == ".corrupt" for path in listed)
        assert cache.total_bytes() == sum(path.stat().st_size for path in listed)

        assert main(["engine", "cache", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ".corrupt" not in out

    def test_quarantine_path_handles_missing_file(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.quarantine_path(tmp_path / "nope.npz") is None
        assert cache.quarantined == 0
