"""Round trips for the uncompressed mmap sidecars in the artifact cache.

``store_catalog(..., mmap_sidecar=True)`` writes the raw ``.nzi.npy`` /
``.nzv.npy`` nonzero pair next to the compressed ``.npz`` — whichever input
form the catalog was built from — and ``load_catalog(..., mmap=True)``
adopts them as read-only memory maps.
Missing or stale sidecars fall back silently to the in-memory npz load;
fresh-but-damaged ones raise through the corrupt-artifact path so the
session quarantines the whole family.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.engine.cache import ArtifactCache
from repro.exceptions import EngineError
from repro.graph.generators import zipf_labeled_graph
from repro.paths.catalog import SelectivityCatalog

MAX_LENGTH = 3


@pytest.fixture()
def graph():
    return zipf_labeled_graph(40, 120, 4, skew=1.0, seed=13, name="g")


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def _probe_indices(catalog: SelectivityCatalog) -> np.ndarray:
    """A few nonzero domain indices plus a zero one."""
    indices, _ = catalog.nonzero_arrays()
    probe = list(indices[:5])
    for candidate in range(catalog.domain_size):
        if candidate not in set(indices.tolist()):
            probe.append(candidate)
            break
    return np.asarray(probe, dtype=np.int64)


def _from_dense_vector(graph) -> SelectivityCatalog:
    """The graph's catalog, built through the dense-vector input form."""
    built = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
    return SelectivityCatalog(built.labels, MAX_LENGTH, built.frequency_vector())


class TestDenseSidecar:
    """A catalog built from a dense frequency vector stores the same pair."""

    def test_round_trip_is_mmap_backed_and_equal(self, graph, cache):
        original = _from_dense_vector(graph)
        cache.store_catalog("k", original, mmap_sidecar=True)
        assert cache.sparse_indices_path("k").exists()
        assert not (cache.root / "catalog-k.npy").exists()

        loaded = cache.load_catalog("k", mmap=True)
        assert loaded is not None
        assert loaded.mmap_backed
        assert loaded.labels == original.labels
        assert np.array_equal(loaded.frequency_vector(), original.frequency_vector())
        probe = _probe_indices(original)
        assert np.array_equal(
            loaded.selectivities_at(probe), original.selectivities_at(probe)
        )

    def test_plain_load_ignores_sidecar(self, graph, cache):
        original = _from_dense_vector(graph)
        cache.store_catalog("k", original, mmap_sidecar=True)
        loaded = cache.load_catalog("k")
        assert loaded is not None
        assert not loaded.mmap_backed

    def test_missing_sidecar_falls_back_to_npz(self, graph, cache):
        original = _from_dense_vector(graph)
        cache.store_catalog("k", original, mmap_sidecar=True)
        for sidecar in (cache.sparse_indices_path("k"), cache.sparse_values_path("k")):
            sidecar.unlink()

        loaded = cache.load_catalog("k", mmap=True)
        assert loaded is not None
        assert not loaded.mmap_backed
        assert np.array_equal(loaded.frequency_vector(), original.frequency_vector())

    def test_stale_sidecar_falls_back_to_npz(self, graph, cache):
        original = _from_dense_vector(graph)
        cache.store_catalog("k", original, mmap_sidecar=True)
        # Make the archive strictly newer than the sidecar: a store that
        # rewrote the npz without refreshing the sidecar must not be
        # served stale bytes.
        sidecar = cache.sparse_indices_path("k")
        past = time.time() - 60
        os.utime(sidecar, (past, past))

        loaded = cache.load_catalog("k", mmap=True)
        assert loaded is not None
        assert not loaded.mmap_backed

    def test_fresh_corrupt_sidecar_raises_corrupt_artifact(self, graph, cache):
        original = _from_dense_vector(graph)
        cache.store_catalog("k", original, mmap_sidecar=True)
        sidecar = cache.sparse_values_path("k")
        sidecar.write_bytes(b"not a npy file")

        with pytest.raises(EngineError, match="corrupt cached catalog"):
            cache.load_catalog("k", mmap=True)


class TestSparseSidecar:
    def test_round_trip_is_mmap_backed_and_equal(self, graph, cache):
        original = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
        cache.store_catalog("k", original, mmap_sidecar=True)
        assert cache.sparse_indices_path("k").exists()
        assert cache.sparse_values_path("k").exists()

        loaded = cache.load_catalog("k", mmap=True)
        assert loaded is not None
        assert loaded.mmap_backed
        assert loaded.nnz == original.nnz
        for mine, theirs in zip(loaded.nonzero_arrays(), original.nonzero_arrays()):
            assert np.array_equal(mine, theirs)
        probe = _probe_indices(original)
        assert np.array_equal(
            loaded.selectivities_at(probe), original.selectivities_at(probe)
        )

    def test_missing_half_of_pair_falls_back_to_npz(self, graph, cache):
        original = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
        cache.store_catalog("k", original, mmap_sidecar=True)
        cache.sparse_values_path("k").unlink()

        loaded = cache.load_catalog("k", mmap=True)
        assert loaded is not None
        assert not loaded.mmap_backed
        assert loaded.nnz == original.nnz

    def test_fresh_corrupt_pair_raises_corrupt_artifact(self, graph, cache):
        original = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
        cache.store_catalog("k", original, mmap_sidecar=True)
        cache.sparse_indices_path("k").write_bytes(b"garbage")

        with pytest.raises(EngineError, match="corrupt cached catalog"):
            cache.load_catalog("k", mmap=True)

    def test_mismatched_pair_raises_corrupt_artifact(self, graph, cache):
        original = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
        cache.store_catalog("k", original, mmap_sidecar=True)
        # A values sidecar of the wrong length is fresh and readable but
        # cannot belong to the indices next to it.
        np.save(
            cache.sparse_values_path("k"),
            np.arange(original.nnz + 3, dtype=np.int64),
        )
        # np.save appends .npy to a path that already ends differently —
        # make sure we actually overwrote the sidecar.
        assert cache.sparse_values_path("k").exists()

        with pytest.raises(EngineError, match="corrupt cached catalog"):
            cache.load_catalog("k", mmap=True)

    def test_quarantine_removes_sidecars(self, graph, cache):
        original = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
        cache.store_catalog("k", original, mmap_sidecar=True)
        assert cache.quarantine("k", kind="catalog")
        assert not cache.catalog_path("k").exists()
        assert not cache.sparse_indices_path("k").exists()
        assert not cache.sparse_values_path("k").exists()
