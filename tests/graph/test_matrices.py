"""Tests for per-label boolean adjacency matrices."""

from __future__ import annotations

import pytest

from repro.exceptions import UnknownLabelError
from repro.graph.matrices import LabelMatrixStore


class TestLabelMatrixStore:
    def test_dimension_and_labels(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        assert store.dimension == 4
        assert store.labels == ("x", "y", "z")

    def test_matrix_nnz_matches_edge_count(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        assert store.matrix("x").nnz == 3
        assert store.matrix("y").nnz == 2
        assert store.matrix("z").nnz == 1

    def test_matrix_entries(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        matrix = store.matrix("x")
        a = triangle_graph.vertex_id("a")
        b = triangle_graph.vertex_id("b")
        assert bool(matrix[a, b])
        assert not bool(matrix[b, a])

    def test_unknown_label_raises(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        with pytest.raises(UnknownLabelError):
            store.matrix("missing")

    def test_label_restriction(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph, labels=["x"])
        assert store.labels == ("x",)
        with pytest.raises(UnknownLabelError):
            store.matrix("y")

    def test_path_matrix_two_hops(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        # x then y: a-x->b-y->c, a-x->c-y->d, b? (b-x->d, d has no y edge)
        matrix = store.path_matrix(["x", "y"])
        pairs = {
            (triangle_graph.vertex_by_id(int(r)), triangle_graph.vertex_by_id(int(c)))
            for r, c in zip(*matrix.nonzero())
        }
        assert pairs == {("a", "c"), ("a", "d")}

    def test_empty_path_is_identity(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        identity = store.path_matrix([])
        assert identity.nnz == 4
        assert identity.diagonal().all()

    def test_path_selectivity(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        assert store.path_selectivity(["x"]) == 3
        assert store.path_selectivity(["x", "y"]) == 2
        assert store.path_selectivity(["z", "x"]) == 2  # d->a->{b,c}

    def test_extend_matches_path_matrix(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        prefix = store.path_matrix(["x"])
        extended = store.extend(prefix, "y")
        assert (extended != store.path_matrix(["x", "y"])).nnz == 0

    def test_matrices_are_cached(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        assert store.matrix("x") is store.matrix("x")

    def test_snapshot_semantics(self, triangle_graph):
        store = LabelMatrixStore(triangle_graph)
        before = store.matrix("x").nnz
        triangle_graph.add_edge("c", "x", "a")
        assert store.matrix("x").nnz == before

    def test_matrix_is_canonical_csr(self):
        from repro.graph.generators import zipf_labeled_graph

        graph = zipf_labeled_graph(60, 300, 3, skew=1.0, seed=5)
        store = LabelMatrixStore(graph)
        for label in store.labels:
            matrix = store.matrix(label)
            rows, cols = graph.edge_index_arrays(label)
            expected = {(int(r), int(c)) for r, c in zip(rows, cols)}
            assert set(zip(*(axis.tolist() for axis in matrix.nonzero()))) == expected
            assert matrix.has_canonical_format

    def test_source_ids_are_the_nonzero_rows(self, triangle_graph):
        from_graph = LabelMatrixStore(triangle_graph, labels=["x", "y", "z", "w"])
        from_matrix = LabelMatrixStore(triangle_graph, labels=["x", "y", "z", "w"])
        for label in ("x", "y", "z"):
            expected = sorted(set(from_matrix.matrix(label).nonzero()[0].tolist()))
            assert sorted(from_graph.source_ids(label).tolist()) == expected
            assert sorted(from_matrix.source_ids(label).tolist()) == expected
        # In the alphabet but without edges: no sources, and no matrix built.
        assert from_graph.source_ids("w").size == 0
        with pytest.raises(UnknownLabelError):
            from_graph.source_ids("nope")
