"""Tests for :class:`repro.engine.session.EstimationSession`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, EstimationSession
from repro.exceptions import EngineError, UnknownLabelError
from repro.paths.enumeration import enumerate_label_paths

CONFIG = EngineConfig(max_length=3, ordering="sum-based", bucket_count=16)


@pytest.fixture(scope="module")
def session(small_graph) -> EstimationSession:
    return EstimationSession.build(small_graph, CONFIG)


def domain_strings(session: EstimationSession) -> list[str]:
    return [
        str(path)
        for path in enumerate_label_paths(
            session.catalog.labels, session.config.max_length
        )
    ]


class TestEngineConfig:
    def test_rejects_bad_max_length(self):
        with pytest.raises(EngineError):
            EngineConfig(max_length=0)

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(EngineError):
            EngineConfig(bucket_count=0)

    def test_histogram_fields_cover_catalog_fields(self):
        config = EngineConfig(max_length=2)
        assert set(config.catalog_fields()) <= set(config.histogram_fields())


class TestBatchParity:
    def test_batch_matches_loop_on_full_domain(self, session):
        paths = domain_strings(session)
        batch = session.estimate_batch(paths)
        loop = np.array([session.estimate(path) for path in paths])
        assert batch.shape == (len(paths),)
        assert np.allclose(batch, loop)

    def test_batch_matches_estimator_on_random_workload(self, session):
        domain = domain_strings(session)
        rng = np.random.default_rng(13)
        workload = [domain[i] for i in rng.integers(0, len(domain), 500)]
        batch = session.estimate_batch(workload)
        reference = session.estimator.estimate_many(workload)
        assert np.allclose(batch, np.array(reference))

    def test_accepts_label_path_objects(self, session):
        from repro.paths.label_path import LabelPath

        paths = [LabelPath.parse(text) for text in domain_strings(session)[:20]]
        batch = session.estimate_batch(paths)
        loop = np.array([session.estimate(path) for path in paths])
        assert np.allclose(batch, loop)

    def test_empty_batch(self, session):
        assert session.estimate_batch([]).shape == (0,)

    def test_unknown_label_raises(self, session):
        with pytest.raises(UnknownLabelError):
            session.estimate_batch(["definitely-not-a-label"])

    def test_positions_agree_with_ordering(self, session):
        ordering = session.ordering
        for text in domain_strings(session)[:50]:
            assert session.position(text) == ordering.index(text)


class TestCacheBehavior:
    def test_cold_build_populates_cache(self, small_graph, tmp_path):
        session = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert not session.stats.catalog_from_cache
        names = sorted(path.name for path in tmp_path.iterdir())
        assert any(name.startswith("catalog-") for name in names)
        assert any(name.startswith("histogram-") for name in names)
        assert any(name.startswith("positions-") for name in names)

    def test_warm_build_hits_every_artifact(self, small_graph, tmp_path):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        assert warm.stats.histogram_from_cache
        assert warm.stats.positions_from_cache

    def test_warm_build_skips_catalog_construction(
        self, small_graph, tmp_path, monkeypatch
    ):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("catalog construction ran on a warm cache")

        import repro.paths.catalog as catalog_module
        import repro.paths.enumeration as enumeration_module

        monkeypatch.setattr(catalog_module, "compute_selectivity_nonzeros", explode)
        monkeypatch.setattr(enumeration_module, "_matrix_subtrees_nonzeros", explode)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache

    def test_warm_estimates_match_cold(self, small_graph, tmp_path):
        cold = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        paths = domain_strings(cold)
        assert np.allclose(cold.estimate_batch(paths), warm.estimate_batch(paths))

    @pytest.mark.parametrize(
        "variant",
        [
            EngineConfig(max_length=2, ordering="sum-based", bucket_count=16),
            EngineConfig(max_length=3, ordering="num-alph", bucket_count=16),
            EngineConfig(max_length=3, ordering="sum-based", bucket_count=8),
            EngineConfig(
                max_length=3,
                ordering="sum-based",
                histogram_kind="equi-width",
                bucket_count=16,
            ),
        ],
    )
    def test_config_change_invalidates_histogram(
        self, small_graph, tmp_path, variant
    ):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        rebuilt = EstimationSession.build(small_graph, variant, cache_dir=tmp_path)
        assert not rebuilt.stats.histogram_from_cache
        assert not rebuilt.stats.positions_from_cache
        # Only a change of k invalidates the catalog artifact.
        expected_catalog_hit = variant.max_length == CONFIG.max_length
        assert rebuilt.stats.catalog_from_cache == expected_catalog_hit

    def test_different_graph_misses(self, small_graph, triangle_graph, tmp_path):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        other = EstimationSession.build(triangle_graph, CONFIG, cache_dir=tmp_path)
        assert not other.stats.catalog_from_cache

    def test_ideal_ordering_builds_with_cache(self, small_graph, tmp_path):
        """Non-serialisable orderings must not abort a cached build."""
        config = EngineConfig(max_length=2, ordering="ideal", bucket_count=8)
        session = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert session.stats.extra.get("histogram_not_cacheable") is True
        # The catalog artifact is still cached, so a second build warm-starts
        # the expensive part even though the histogram is rebuilt.
        warm = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        paths = domain_strings(session)[:20]
        assert np.allclose(
            session.estimate_batch(paths), warm.estimate_batch(paths)
        )


class TestCatalogOracle:
    @pytest.mark.parametrize(
        "big, lazy",
        [pytest.param(False, False, id="dense"), pytest.param(True, True, id="sparse")],
    )
    def test_cold_and_updated_catalogs_match_per_path_oracle(
        self, small_graph, oracle_vector, big, lazy
    ):
        # One graph on each side of the layout predicate: a small domain
        # with a position table, a large mostly-zero one ranked on demand.
        from repro.graph.delta import GraphDelta
        from repro.graph.generators import zipf_labeled_graph

        config = EngineConfig(max_length=3, bucket_count=16)
        graph = (
            zipf_labeled_graph(300, 200, 16, skew=1.0, seed=5)
            if big
            else small_graph.copy()
        )
        session = EstimationSession.build(graph, config)
        assert bool(session.stats.extra.get("lazy_positions")) is lazy
        assert np.array_equal(
            session.catalog.frequency_vector(), oracle_vector(graph, 3)
        )
        first = graph.labels()[0]
        delta = GraphDelta(
            additions=[(0, first, 1)], removals=[tuple(next(iter(graph.edges())))]
        )
        updated = session.update(delta)
        assert bool(updated.stats.extra.get("lazy_positions")) is lazy
        assert np.array_equal(
            updated.catalog.frequency_vector(), oracle_vector(graph, 3)
        )
