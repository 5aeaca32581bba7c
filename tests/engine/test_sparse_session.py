"""Sessions on the sparse side of the layout predicate: lazy ranking,
O(nnz) accounting, artifact round trips and incremental updates.

The graph's k=4 domain (11,110 paths) is large and mostly zero, so its
sessions keep no position table and rank every batch on demand.  The
"dense" session it is compared against is the same pipeline answered
through an explicit path → position table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.exceptions import EngineError
from repro.graph.delta import GraphDelta
from repro.graph.generators import zipf_labeled_graph
from repro.paths.evaluation import path_selectivity
from repro.serving import SessionRegistry


@pytest.fixture(scope="module")
def graph():
    return zipf_labeled_graph(150, 220, 10, skew=0.8, seed=13, name="sparse-eng")


@pytest.fixture(scope="module")
def config():
    return EngineConfig(max_length=4, ordering="sum-based", bucket_count=32)


@pytest.fixture(scope="module")
def sessions(graph, config):
    sparse = EstimationSession.build(graph, config)
    table = dict(
        zip(
            (str(path) for path in sparse.catalog.paths()),
            sparse.ordering.index_array().tolist(),
        )
    )
    dense = EstimationSession(sparse.catalog, sparse.histogram, position_of=table, config=config)
    return dense, sparse


class TestSparseSession:
    def test_storage_and_stats(self, sessions):
        _, sparse = sessions
        assert sparse.stats.extra.get("lazy_positions") is True
        assert "catalog_storage" not in sparse.stats.extra
        assert sparse.stats.extra.get("catalog_nnz") == sparse.catalog.nnz

    def test_estimates_agree_with_dense_session(self, sessions):
        dense, sparse = sessions
        workload = [str(path) for path in dense.catalog.paths()][::7]
        assert np.allclose(
            dense.estimate_batch(workload), sparse.estimate_batch(workload)
        )

    def test_batch_agrees_with_scalar_loop(self, sessions):
        _, sparse = sessions
        workload = [str(path) for path in sparse.catalog.nonzero_paths()[:40]]
        batch = sparse.estimate_batch(workload)
        assert np.allclose(batch, [sparse.estimate(path) for path in workload])

    def test_positions_agree_with_ordering(self, sessions):
        _, sparse = sessions
        workload = ["1", "2/3", "4/5/6"]
        expected = [sparse.ordering.index(path) for path in workload]
        assert sparse.positions(workload).tolist() == expected
        assert sparse.position("2/3") == sparse.ordering.index("2/3")

    def test_memory_accounting_is_o_nnz(self, sessions):
        dense, sparse = sessions
        assert sparse.memory_bytes() < dense.memory_bytes() / 10
        assert sparse.memory_bytes() >= sparse.catalog.memory_bytes()

    def test_true_selectivity_served_from_sparse_catalog(self, graph, sessions):
        _, sparse = sessions
        for path in list(sparse.catalog.nonzero_paths())[:10] + ["1/1/1/1"]:
            assert sparse.true_selectivity(path) == path_selectivity(graph, path)


class TestSparseArtifacts:
    def test_warm_start_round_trips_sparse_catalog(self, graph, config, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = EstimationSession.build(graph, config, cache_dir=cache)
        assert not cold.stats.catalog_from_cache
        warm = EstimationSession.build(graph, config, cache_dir=cache)
        assert warm.stats.catalog_from_cache
        assert warm.stats.extra.get("lazy_positions") is True
        assert np.array_equal(
            warm.catalog.nonzero_arrays()[0], cold.catalog.nonzero_arrays()[0]
        )
        workload = [str(path) for path in cold.catalog.nonzero_paths()[:25]]
        assert np.allclose(
            warm.estimate_batch(workload), cold.estimate_batch(workload)
        )

    def test_no_position_artifact_for_sparse_sessions(self, graph, config, tmp_path):
        cache = ArtifactCache(tmp_path)
        EstimationSession.build(graph, config, cache_dir=cache)
        assert not any(tmp_path.glob("positions-*.npy"))
        # k=2 (110 paths) is below the sparse layout's domain threshold.
        small = EngineConfig(max_length=2, ordering="sum-based", bucket_count=32)
        EstimationSession.build(graph, small, cache_dir=cache)
        assert any(tmp_path.glob("positions-*.npy"))

    def test_no_mmap_sidecar_for_sparse_catalogs(self, graph, config, tmp_path):
        # No O(|Lk|) frequency-vector sidecar: only the O(nnz) pair.
        cache = ArtifactCache(tmp_path)
        session = EstimationSession.build(graph, config, cache_dir=cache)
        cache.store_catalog("forced", session.catalog, mmap_sidecar=True)
        assert not (tmp_path / "catalog-forced.npy").exists()
        assert cache.sparse_indices_path("forced").exists()
        loaded = cache.load_catalog("forced", mmap=True)
        assert loaded.mmap_backed


class TestSparseUpdate:
    def test_update_matches_cold_rebuild(self, graph, config, tmp_path):
        session = EstimationSession.build(graph.copy(), config, cache_dir=ArtifactCache(tmp_path))
        label = sorted(graph.labels())[2]
        removals = list(graph.edges_with_label(label))[:3]
        delta = GraphDelta(removals=removals)
        updated = session.update(delta)
        assert updated.stats.extra.get("lazy_positions") is True
        assert updated.stats.extra.get("delta_full_rebuild") is False
        cold_graph = graph.copy()
        delta.apply(cold_graph)
        cold = EstimationSession.build(cold_graph, config)
        assert np.array_equal(
            updated.catalog.nonzero_arrays()[0], cold.catalog.nonzero_arrays()[0]
        )
        assert np.array_equal(
            updated.catalog.nonzero_arrays()[1], cold.catalog.nonzero_arrays()[1]
        )
        workload = [str(path) for path in cold.catalog.nonzero_paths()[:20]]
        assert np.allclose(
            updated.estimate_batch(workload), cold.estimate_batch(workload)
        )

    def test_stale_update_still_guarded(self, graph, config):
        session = EstimationSession.build(graph.copy(), config)
        delta = GraphDelta(removals=[tuple(next(iter(session.graph.edges())))])
        session.update(delta)  # mutates the retained graph
        with pytest.raises(EngineError, match="stale session"):
            session.update(delta)


class TestSparseServing:
    def test_registry_serves_sparse_sessions(self, graph, config):
        registry = SessionRegistry(default_config=config)
        registry.register("sparse-graph", graph=graph)
        session = registry.get("sparse-graph")
        assert session.stats.extra.get("lazy_positions") is True
        row = registry.describe()[0]
        assert "storage" not in row and "catalog_storage" not in row
        assert row["memory_bytes"] == session.memory_bytes()
        assert registry.memory_bytes() == session.memory_bytes()
