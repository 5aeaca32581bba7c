"""Tests for incremental catalog updates (`update_selectivity_nonzeros` /
`SelectivityCatalog.apply_delta`): patched results must be byte-identical to
cold rebuilds and to the per-path oracle, across graph shapes and delta
mixes."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import GraphError, PathError
from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    ring_labeled_graph,
    zipf_labeled_graph,
)
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    update_selectivity_nonzeros,
)


def random_delta(
    graph: LabeledDiGraph, seed: int, *, additions: int, removals: int
) -> GraphDelta:
    """A mixed delta over the graph's existing alphabet and vertex ids."""
    rng = random.Random(seed)
    labels = graph.labels()
    removed = [
        tuple(edge) for edge in rng.sample(list(graph.edges()), removals)
    ]
    vertex_pool = list(graph.vertices())
    added: set[tuple[object, str, object]] = set()
    while len(added) < additions:
        triple = (
            rng.choice(vertex_pool),
            rng.choice(labels),
            rng.choice(vertex_pool),
        )
        if not graph.has_edge(*triple) and triple not in removed:
            added.add(triple)
    return GraphDelta(additions=sorted(added, key=repr), removals=removed)


def as_vector(nonzeros, label_count: int, max_length: int) -> np.ndarray:
    """A nonzero pair scattered over the canonical domain."""
    indices, counts = nonzeros
    vector = np.zeros(domain_size(label_count, max_length), dtype=np.int64)
    vector[indices] = counts
    return vector


def assert_incremental_matches_cold(graph, delta, max_length, oracle_vector):
    old = compute_selectivity_nonzeros(graph, max_length)
    updated = graph.copy()
    delta.apply(updated)
    alphabet = sorted(graph.labels())
    cold = compute_selectivity_nonzeros(updated, max_length, labels=alphabet)
    patched = update_selectivity_nonzeros(updated, max_length, *old, delta, labels=alphabet)
    assert patched[0].dtype == patched[1].dtype == np.int64
    assert np.array_equal(cold[0], patched[0])
    assert np.array_equal(cold[1], patched[1])
    vectors = [as_vector(pair, len(alphabet), max_length) for pair in (old, cold, patched)]
    assert np.array_equal(oracle_vector(updated, max_length, labels=alphabet), vectors[2])
    return (updated, *vectors)


class TestUpdateSelectivityVector:
    """The delta kernel, checked over the whole domain laid out as a vector."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_delta_on_random_graph(self, seed, oracle_vector):
        graph = zipf_labeled_graph(50, 300, 4, skew=0.8, seed=seed)
        delta = random_delta(graph, seed + 10, additions=12, removals=12)
        assert_incremental_matches_cold(graph, delta, 3, oracle_vector)

    def test_additions_only(self, oracle_vector):
        graph = erdos_renyi_graph(40, 160, 3, seed=5)
        delta = random_delta(graph, 6, additions=15, removals=0)
        assert_incremental_matches_cold(graph, delta, 3, oracle_vector)

    def test_removals_only(self, oracle_vector):
        graph = erdos_renyi_graph(40, 160, 3, seed=7)
        delta = random_delta(graph, 8, additions=0, removals=15)
        assert_incremental_matches_cold(graph, delta, 3, oracle_vector)

    def test_new_vertices_grow_the_matrices(self, oracle_vector):
        graph = zipf_labeled_graph(30, 120, 3, seed=9)
        label = graph.labels()[0]
        delta = GraphDelta(additions=[("new-u", label, "new-v")])
        assert_incremental_matches_cold(graph, delta, 2, oracle_vector)

    def test_ring_delta_only_touches_affected_slices(self, oracle_vector):
        graph = ring_labeled_graph(8, 25, 120, seed=4)
        edges = list(graph.edges_with_label("4"))
        delta = GraphDelta(removals=edges[:6])
        updated, old_vector, cold, patched = assert_incremental_matches_cold(
            graph, delta, 3, oracle_vector
        )
        # Unaffected subtree slices must be carried over from the old vector
        # (the analysis proves they cannot have changed).
        alphabet = sorted(graph.labels())
        affected = set(affected_first_labels(updated, delta, 3, labels=alphabet))
        assert 0 < len(affected) < len(alphabet)
        base = len(alphabet)
        starts = [0]
        for length in range(1, 4):
            starts.append(starts[-1] + base**length)
        for digit, label in enumerate(alphabet):
            if label in affected:
                continue
            for length in range(3):
                width = base**length
                offset = starts[length] + digit * width
                assert np.array_equal(
                    patched[offset:offset + width],
                    old_vector[offset:offset + width],
                )

    def test_empty_delta_returns_writable_copy(self):
        graph = zipf_labeled_graph(20, 80, 3, seed=2)
        old_indices, old_counts = compute_selectivity_nonzeros(graph, 2)
        old_indices.setflags(write=False)
        old_counts.setflags(write=False)
        indices, counts = update_selectivity_nonzeros(
            graph, 2, old_indices, old_counts, GraphDelta()
        )
        assert np.array_equal(indices, old_indices)
        assert np.array_equal(counts, old_counts)
        assert indices is not old_indices and counts is not old_counts
        indices[0] = 123  # must be writable
        counts[0] = 123

    def test_patch_builds_only_the_matrices_it_reaches(self, monkeypatch):
        # On a schema-structured ring a one-label delta reaches a handful of
        # labels; the kernel must not build the other labels' matrices.
        graph = ring_labeled_graph(12, 20, 60, seed=4)
        old = compute_selectivity_nonzeros(graph, 3)
        delta = GraphDelta(removals=list(graph.edges_with_label("6"))[:3])
        delta.apply(graph)
        built: list[str] = []
        edge_index_arrays = LabeledDiGraph.edge_index_arrays

        def recording(self, label):
            built.append(label)
            return edge_index_arrays(self, label)

        monkeypatch.setattr(LabeledDiGraph, "edge_index_arrays", recording)
        patched = update_selectivity_nonzeros(graph, 3, *old, delta)
        assert 0 < len(built) < graph.label_count
        monkeypatch.undo()
        cold = compute_selectivity_nonzeros(graph, 3)
        assert np.array_equal(patched[0], cold[0])
        assert np.array_equal(patched[1], cold[1])

    def test_affected_labels_outside_alphabet_raise(self):
        graph = zipf_labeled_graph(20, 80, 3, seed=2)
        old = compute_selectivity_nonzeros(graph, 2)
        with pytest.raises(PathError, match="outside the alphabet"):
            update_selectivity_nonzeros(graph, 2, *old, GraphDelta(), affected=["nope"])

    def test_wrong_vector_shape_raises(self):
        graph = zipf_labeled_graph(20, 80, 3, seed=2)
        with pytest.raises(PathError, match="must be aligned one-dimensional"):
            update_selectivity_nonzeros(
                graph, 2, np.zeros(5, dtype=np.int64), np.zeros(4, dtype=np.int64), GraphDelta()
            )

    def test_delta_label_outside_alphabet_raises(self):
        graph = zipf_labeled_graph(20, 80, 3, seed=2)
        alphabet = sorted(graph.labels())
        old = compute_selectivity_nonzeros(graph, 2)
        delta = GraphDelta(additions=[(0, "zz", 1)])
        updated = graph.copy()
        delta.apply(updated)
        # The added label is present in the post-delta graph but outside the
        # pinned alphabet: a genuine domain mismatch (the caller should have
        # taken the full-rebuild path).
        with pytest.raises(GraphError, match="outside the alphabet"):
            update_selectivity_nonzeros(updated, 2, *old, delta, labels=alphabet)


class TestCatalogApplyDelta:
    def test_apply_delta_matches_from_graph(self, oracle_vector):
        graph = zipf_labeled_graph(40, 200, 4, skew=0.7, seed=21)
        catalog = SelectivityCatalog.from_graph(graph, 3)
        delta = random_delta(graph, 22, additions=10, removals=10)
        updated = graph.copy()
        delta.apply(updated)
        patched = catalog.apply_delta(updated, delta)
        cold = SelectivityCatalog.from_graph(updated, 3)
        assert np.array_equal(
            patched.frequency_vector(), cold.frequency_vector()
        )
        assert np.array_equal(patched.frequency_vector(), oracle_vector(updated, 3))
        assert patched.labels == catalog.labels
        assert patched is not catalog  # catalogs stay immutable

    def test_alphabet_growth_falls_back_to_full_rebuild(self):
        graph = zipf_labeled_graph(30, 120, 3, seed=23)
        catalog = SelectivityCatalog.from_graph(graph, 2)
        delta = GraphDelta(additions=[(0, "brand-new", 1)])
        updated = graph.copy()
        delta.apply(updated)
        patched = catalog.apply_delta(updated, delta)
        cold = SelectivityCatalog.from_graph(updated, 2)
        assert patched.labels == cold.labels
        assert np.array_equal(
            patched.frequency_vector(), cold.frequency_vector()
        )

    def test_vanished_label_falls_back_to_full_rebuild(self):
        graph = LabeledDiGraph(
            [(0, "a", 1), (1, "b", 2), (0, "b", 2)], name="tiny"
        )
        catalog = SelectivityCatalog.from_graph(graph, 2)
        delta = GraphDelta(removals=[(0, "a", 1)])
        updated = graph.copy()
        delta.apply(updated)
        patched = catalog.apply_delta(updated, delta)
        cold = SelectivityCatalog.from_graph(updated, 2)
        assert patched.labels == ("b",)
        assert np.array_equal(
            patched.frequency_vector(), cold.frequency_vector()
        )

    def test_updated_catalog_round_trips_npz(self, tmp_path):
        graph = ring_labeled_graph(6, 20, 80, seed=27)
        catalog = SelectivityCatalog.from_graph(graph, 3)
        edges = list(graph.edges_with_label("3"))
        delta = GraphDelta(removals=edges[:4])
        updated = graph.copy()
        delta.apply(updated)
        patched = catalog.apply_delta(updated, delta)
        path = tmp_path / "patched.npz"
        patched.save_npz(path)
        loaded = SelectivityCatalog.load_npz(path)
        assert np.array_equal(
            loaded.frequency_vector(), patched.frequency_vector()
        )
