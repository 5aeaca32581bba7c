"""Tests for the catalog builder (:func:`compute_selectivity_nonzeros`) against
per-path evaluation, laid out over the whole canonical domain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import zipf_labeled_graph
from repro.graph.matrices import LabelMatrixStore
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    enumerate_label_paths,
)


def nonzeros_as_vector(graph: LabeledDiGraph, max_length: int, **kwargs) -> np.ndarray:
    """The builder's nonzero pair scattered over the canonical domain."""
    indices, counts = compute_selectivity_nonzeros(graph, max_length, **kwargs)
    assert indices.dtype == counts.dtype == np.int64
    assert np.all(counts > 0)
    vector = np.zeros(domain_size(graph.label_count, max_length), dtype=np.int64)
    vector[indices] = counts
    return vector


def reference_vector(graph: LabeledDiGraph, max_length: int) -> np.ndarray:
    """A per-path ``LabelPath -> f`` dict, re-laid-out in canonical domain order."""
    store = LabelMatrixStore(graph)
    selectivities = {
        path: store.path_selectivity(path.labels)
        for path in enumerate_label_paths(graph.labels(), max_length)
    }
    return np.array(
        [
            selectivities[path]
            for path in enumerate_label_paths(graph.labels(), max_length)
        ],
        dtype=np.int64,
    )


class TestVectorMatchesDictBuilder:
    def test_triangle(self, triangle_graph):
        vector = nonzeros_as_vector(triangle_graph, 3)
        assert np.array_equal(vector, reference_vector(triangle_graph, 3))

    def test_small_graph(self, small_graph):
        vector = nonzeros_as_vector(small_graph, 3)
        assert vector.dtype == np.int64
        assert vector.shape == (domain_size(4, 3),)
        assert np.array_equal(vector, reference_vector(small_graph, 3))


class TestZeroSubtreeSliceFill:
    @pytest.fixture()
    def chain_graph(self) -> LabeledDiGraph:
        # x-edges then one y-edge: anything through y twice (or y then x) is
        # empty, so the k=4 domain is dominated by zero subtrees.
        graph = LabeledDiGraph(name="chain")
        graph.add_edges_from(
            [("v0", "x", "v1"), ("v1", "x", "v2"), ("v2", "y", "v3")]
        )
        return graph

    def test_matches_brute_force_path_selectivity(self, chain_graph):
        store = LabelMatrixStore(chain_graph)
        vector = nonzeros_as_vector(chain_graph, 4, store=store)
        for index, path in enumerate(
            enumerate_label_paths(chain_graph.labels(), 4)
        ):
            assert vector[index] == store.path_selectivity(path.labels), str(path)

    def test_zero_subtrees_account_progress(self, chain_graph):
        seen: list[int] = []
        nonzeros_as_vector(chain_graph, 6, progress=seen.append)
        assert seen, "progress never fired on a zero-dominated domain"
        assert max(seen) == domain_size(2, 6)


class TestProgress:
    def test_progress_is_monotonic_and_ends_at_domain_size(self):
        graph = zipf_labeled_graph(30, 150, 10, skew=1.0, seed=5, name="progress")
        seen: list[int] = []
        nonzeros_as_vector(graph, 4, progress=seen.append)
        assert seen == sorted(seen)
        assert seen[-1] == domain_size(graph.label_count, 4)

    def test_catalog_forwards_progress(self, small_graph):
        seen: list[int] = []
        SelectivityCatalog.from_graph(small_graph, 3, progress=seen.append)
        assert seen[-1] == domain_size(small_graph.label_count, 3)
