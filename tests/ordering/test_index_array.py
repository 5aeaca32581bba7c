"""Vectorised ``Ordering.index_array`` must agree with the scalar bijection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OrderingError, PathError, UnknownLabelError
from repro.ordering.registry import make_ordering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import enumerate_label_paths
from repro.paths.label_path import LabelPath

ALL_METHODS = ("num-alph", "num-card", "lex-alph", "lex-card", "sum-based", "ideal")

#: The orderings that must NOT fall back to the scalar loop.
VECTORISED_METHODS = ("num-alph", "num-card", "lex-alph", "lex-card", "sum-based")


@pytest.fixture(scope="module", params=[(3, 4), (5, 3)], ids=["L3k4", "L5k3"])
def catalog(request):
    from repro.graph.generators import zipf_labeled_graph

    labels, max_length = request.param
    graph = zipf_labeled_graph(40, 160, labels, skew=1.0, seed=3)
    return SelectivityCatalog.from_graph(graph, max_length)


@pytest.mark.parametrize("method", ALL_METHODS)
class TestFullDomain:
    def test_matches_scalar_ranking_over_whole_domain(self, catalog, method):
        ordering = make_ordering(method, catalog=catalog)
        scalar = np.fromiter(
            (
                ordering.index(path)
                for path in enumerate_label_paths(
                    catalog.labels, catalog.max_length
                )
            ),
            dtype=np.int64,
            count=ordering.size,
        )
        vectorised = ordering.index_array()
        assert vectorised.dtype == np.int64
        assert np.array_equal(vectorised, scalar)
        # index_array is a permutation of [0, |Lk|): a true bijection.
        assert np.array_equal(np.sort(vectorised), np.arange(ordering.size))

    def test_explicit_paths_match_scalar(self, catalog, method):
        ordering = make_ordering(method, catalog=catalog)
        paths = [
            "1",
            "2/1",
            f"{len(catalog.labels)}/1",
            "1/1/1",
            LabelPath.parse("2/2/2"),
        ]
        vectorised = ordering.index_array(paths)
        scalar = [ordering.index(path) for path in paths]
        assert list(vectorised) == scalar

    def test_empty_batch(self, catalog, method):
        ordering = make_ordering(method, catalog=catalog)
        assert ordering.index_array([]).shape == (0,)


class ScalarIndexCalled(Exception):
    """Raised by a patched ``Ordering.index``: the scalar fallback ran."""


def _scalar_index_forbidden(self, path):
    raise ScalarIndexCalled(path)


@pytest.mark.parametrize("method", VECTORISED_METHODS)
def test_closed_form_orderings_do_not_fall_back(catalog, method, monkeypatch):
    ordering = make_ordering(method, catalog=catalog)
    expected = ordering.index_array()
    paths = [ordering.path(index) for index in range(ordering.size)]
    monkeypatch.setattr(type(ordering), "index", _scalar_index_forbidden)
    assert np.array_equal(ordering.index_array(), expected)
    assert ordering.index_array(paths).tolist() == list(range(ordering.size))
    assert np.array_equal(
        ordering.rank_domain_indices(np.arange(ordering.size)), expected
    )


def test_ideal_ordering_uses_fallback(catalog, monkeypatch):
    ordering = make_ordering("ideal", catalog=catalog)
    monkeypatch.setattr(type(ordering), "index", _scalar_index_forbidden)
    with pytest.raises(ScalarIndexCalled):
        ordering.index_array()
    with pytest.raises(ScalarIndexCalled):
        ordering.index_array(["1"])
    with pytest.raises(ScalarIndexCalled):
        ordering.rank_domain_indices([0])


class TestValidation:
    def test_unknown_label_raises(self, catalog):
        ordering = make_ordering("sum-based", catalog=catalog)
        with pytest.raises(UnknownLabelError):
            ordering.index_array(["1", "99"])

    def test_over_length_path_raises(self, catalog):
        ordering = make_ordering("num-alph", catalog=catalog)
        too_long = "/".join(["1"] * (catalog.max_length + 1))
        with pytest.raises((OrderingError, PathError)):
            ordering.index_array([too_long])


def test_engine_positions_match_vectorised_table(tmp_path):
    """The engine's cached position table is exactly ``index_array()``."""
    from repro.engine import ArtifactCache, EngineConfig, EstimationSession
    from repro.graph.generators import zipf_labeled_graph

    graph = zipf_labeled_graph(40, 160, 4, skew=1.0, seed=3)
    cache = ArtifactCache(tmp_path)
    session = EstimationSession.build(
        graph, EngineConfig(max_length=3, bucket_count=8), cache_dir=cache
    )
    stored = cache.load_positions(session.stats.histogram_key)
    assert np.array_equal(stored, session.ordering.index_array())
