"""Equality gate for the matrix-chain kernel, the one catalog builder.

The kernel (stacked frontiers, flushed at a fixed entry budget) must be
byte-identical to a plain per-node trie walk everywhere: randomized graphs
across generators and alphabet sizes, degenerate domains (single label,
labels with no edges, zero subtrees), the catalog's materialised frequency
vector, delta-patched rebuilds, and the catalog plumbing around it — at the default
flush budget and at a budget of one entry, which flushes after every part.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.paths.enumeration as enumeration
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    ring_labeled_graph,
    zipf_labeled_graph,
)
from repro.graph.matrices import LabelMatrixStore, block_nonzero_counts
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    update_selectivity_nonzeros,
)
from repro.paths.index import path_to_domain_index


def reference_nonzeros(graph, max_length, labels=None):
    """The reference trie walk: one boolean product per live trie node.

    Depth-first over the path trie; every nonzero path is recorded at its
    canonical domain index and extended by each label, and empty prefixes
    end their subtree.  No stacking, no flush budget, no row compaction.
    """
    alphabet = sorted(labels) if labels is not None else graph.labels()
    store = LabelMatrixStore(graph, labels=alphabet)
    found: dict[int, int] = {}

    def visit(path, matrix):
        if matrix.nnz == 0:
            return
        found[path_to_domain_index("/".join(path), alphabet)] = int(matrix.nnz)
        if len(path) < max_length:
            for label in alphabet:
                visit(path + (label,), store.extend(matrix, label))

    for label in alphabet:
        visit((label,), store.matrix(label))
    indices = np.array(sorted(found), dtype=np.int64)
    counts = np.array([found[index] for index in indices], dtype=np.int64)
    return indices, counts


def reference_vector(graph, max_length, labels=None):
    """:func:`reference_nonzeros` scattered into a dense domain vector."""
    alphabet = sorted(labels) if labels is not None else graph.labels()
    vector = np.zeros(domain_size(len(alphabet), max_length), dtype=np.int64)
    indices, counts = reference_nonzeros(graph, max_length, labels=alphabet)
    vector[indices] = counts
    return vector


def assert_streams_identical(left, right):
    """Byte-for-byte equality of two ``(indices, counts)`` stream pairs."""
    assert left[0].dtype == right[0].dtype == np.int64
    assert left[1].dtype == right[1].dtype == np.int64
    assert left[0].tobytes() == right[0].tobytes()
    assert left[1].tobytes() == right[1].tobytes()


def random_delta(graph, seed=101):
    """Five random additions and one removal over the graph's alphabet."""
    rng = np.random.default_rng(seed)
    labels = sorted(graph.labels())
    vertices = list(graph.vertices())
    removal = next(iter(graph.edges()))
    additions = []
    while len(additions) < 5:
        source = vertices[int(rng.integers(len(vertices)))]
        target = vertices[int(rng.integers(len(vertices)))]
        label = labels[int(rng.integers(len(labels)))]
        if not graph.has_edge(source, label, target):
            additions.append((source, label, target))
    return GraphDelta(additions=additions, removals=(tuple(removal),))


GRAPH_CASES = [
    pytest.param(lambda: erdos_renyi_graph(120, 700, 4, seed=3), 4, id="erdos-renyi-4"),
    pytest.param(lambda: erdos_renyi_graph(60, 500, 2, seed=5), 5, id="erdos-renyi-2"),
    pytest.param(
        lambda: zipf_labeled_graph(400, 300, 12, skew=0.8, seed=29), 5, id="zipf-12"
    ),
    pytest.param(
        lambda: zipf_labeled_graph(200, 180, 6, skew=1.2, seed=11), 6, id="zipf-6"
    ),
    pytest.param(
        lambda: barabasi_albert_graph(150, 3, 5, seed=7), 4, id="barabasi-5"
    ),
    pytest.param(
        lambda: forest_fire_graph(120, 3, seed=13), 4, id="forest-fire-3"
    ),
    pytest.param(
        lambda: ring_labeled_graph(8, 40, 120, seed=17), 4, id="ring-8"
    ),
]


class TestMatrixNonzerosEquality:
    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_matches_dfs_across_generators(self, make_graph, k):
        graph = make_graph()
        assert_streams_identical(
            reference_nonzeros(graph, k), compute_selectivity_nonzeros(graph, k)
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dfs_at_small_lengths(self, k):
        graph = erdos_renyi_graph(80, 300, 3, seed=23)
        assert_streams_identical(
            reference_nonzeros(graph, k), compute_selectivity_nonzeros(graph, k)
        )

    def test_single_label_alphabet(self):
        graph = erdos_renyi_graph(50, 120, 1, seed=31)
        assert_streams_identical(
            reference_nonzeros(graph, 5), compute_selectivity_nonzeros(graph, 5)
        )

    def test_alphabet_with_edgeless_labels_yields_zero_subtrees(self):
        # Labels in the alphabet but absent from the graph root empty
        # subtrees; the kernel must skip them exactly like the trie walk.
        graph = erdos_renyi_graph(60, 200, 2, seed=41)
        labels = sorted(graph.labels()) + ["zz-empty", "zz-empty-2"]
        assert_streams_identical(
            reference_nonzeros(graph, 4, labels=labels),
            compute_selectivity_nonzeros(graph, 4, labels=labels),
        )

    def test_edgeless_graph_domain_is_all_zero(self):
        graph = LabeledDiGraph()
        graph.add_vertices_from(["a", "b", "c"])
        indices, counts = compute_selectivity_nonzeros(graph, 3, labels=["x", "y"])
        assert indices.size == 0
        assert counts.size == 0

    def test_deep_chain_prunes_exhausted_frontier(self):
        # A 3-vertex path with one label dies after two hops; levels past
        # the frontier's death must come back empty, not crash.
        graph = LabeledDiGraph()
        graph.add_edge("a", "e", "b")
        graph.add_edge("b", "e", "c")
        matrix = compute_selectivity_nonzeros(graph, 6)
        assert_streams_identical(reference_nonzeros(graph, 6), matrix)
        assert matrix[1].tolist() == [2, 1]

    def test_progress_totals_match_serial(self):
        # The per-node serial walk ticked once per path of the domain, so
        # its total was |Lk|; the kernel's running count must end there too.
        graph = erdos_renyi_graph(80, 300, 4, seed=23)
        ticks: list[int] = []
        compute_selectivity_nonzeros(graph, 4, progress=ticks.append)
        assert ticks == sorted(ticks)
        assert ticks[-1] == domain_size(4, 4)


class TestMatrixVectorEquality:
    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_matches_columnar_vector(self, make_graph, k):
        graph = make_graph()
        assert np.array_equal(
            reference_vector(graph, k),
            SelectivityCatalog.from_graph(graph, k).frequency_vector(),
        )


class TestMatrixDeltaRebuilds:
    def test_patched_nonzeros_match_cold_dfs_rebuild(self):
        graph = zipf_labeled_graph(150, 200, 10, skew=0.8, seed=37)
        labels = sorted(graph.labels())
        old = compute_selectivity_nonzeros(graph, 4, labels=labels)
        delta = random_delta(graph)
        delta.apply(graph)
        patched = update_selectivity_nonzeros(
            graph, 4, old[0], old[1], delta, labels=labels
        )
        assert_streams_identical(patched, reference_nonzeros(graph, 4, labels=labels))

    def test_patched_vector_matches_cold_rebuild(self):
        graph = erdos_renyi_graph(100, 500, 5, seed=43)
        labels = sorted(graph.labels())
        old = compute_selectivity_nonzeros(graph, 4, labels=labels)
        delta = random_delta(graph, seed=7)
        delta.apply(graph)
        patched = update_selectivity_nonzeros(graph, 4, *old, delta, labels=labels)
        vector = SelectivityCatalog(labels, 4, patched).frequency_vector()
        assert np.array_equal(vector, reference_vector(graph, 4, labels=labels))

    def test_stale_entries_inside_affected_subtree_are_cleared(self):
        # A removal that zeroes previously nonzero paths exercises the
        # splice's range dropping (stale counts must not survive).
        graph = LabeledDiGraph()
        graph.add_edge("a", "x", "b")
        graph.add_edge("b", "y", "c")
        labels = sorted(graph.labels())
        old = compute_selectivity_nonzeros(graph, 3, labels=labels)
        delta = GraphDelta(removals=(("b", "y", "c"),))
        delta.apply(graph)
        patched = update_selectivity_nonzeros(graph, 3, *old, delta, labels=labels)
        assert_streams_identical(patched, reference_nonzeros(graph, 3, labels=labels))
        assert patched[0].size < old[0].size


class TestCatalogAndPlumbing:
    def test_catalog_from_graph_sparse_storage(self):
        graph = zipf_labeled_graph(200, 200, 8, skew=0.8, seed=53)
        catalog = SelectivityCatalog.from_graph(graph, 4)
        assert_streams_identical(reference_nonzeros(graph, 4), catalog.nonzero_arrays())

    def test_catalog_from_graph_dense_storage(self):
        graph = erdos_renyi_graph(80, 400, 4, seed=59)
        catalog = SelectivityCatalog.from_graph(graph, 3)
        assert np.array_equal(reference_vector(graph, 3), catalog.frequency_vector())


class TestFlushBudget:
    """A one-entry budget flushes after every part, so every flush path runs."""

    @pytest.fixture(autouse=True)
    def one_entry_budget(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_FLUSH_ENTRIES", 1)

    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_nonzeros_and_progress(self, make_graph, k):
        graph = make_graph()
        ticks: list[int] = []
        nonzeros = compute_selectivity_nonzeros(graph, k, progress=ticks.append)
        assert_streams_identical(reference_nonzeros(graph, k), nonzeros)
        assert ticks == sorted(ticks)
        assert ticks[-1] == domain_size(graph.label_count, k)

    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_vector(self, make_graph, k):
        graph = make_graph()
        assert np.array_equal(
            reference_vector(graph, k),
            SelectivityCatalog.from_graph(graph, k).frequency_vector(),
        )

    def test_degenerate_domains(self):
        single = erdos_renyi_graph(50, 120, 1, seed=31)
        assert_streams_identical(
            reference_nonzeros(single, 5), compute_selectivity_nonzeros(single, 5)
        )
        edgeless_labels = erdos_renyi_graph(60, 200, 2, seed=41)
        labels = sorted(edgeless_labels.labels()) + ["zz-empty"]
        assert_streams_identical(
            reference_nonzeros(edgeless_labels, 4, labels=labels),
            compute_selectivity_nonzeros(edgeless_labels, 4, labels=labels),
        )
        chain = LabeledDiGraph()
        chain.add_edge("a", "e", "b")
        chain.add_edge("b", "e", "c")
        assert_streams_identical(
            reference_nonzeros(chain, 6), compute_selectivity_nonzeros(chain, 6)
        )

    @pytest.mark.parametrize(
        "make_graph, density",
        [
            pytest.param(lambda: erdos_renyi_graph(60, 500, 3, seed=37), 0.9, id="dense"),
            pytest.param(
                lambda: zipf_labeled_graph(150, 200, 10, skew=0.8, seed=37), 0.01, id="sparse"
            ),
        ],
    )
    def test_patched_catalog_equals_cold_build(self, make_graph, density):
        # A mostly-nonzero domain splices many entries, a mostly-zero one few.
        graph = make_graph()
        catalog = SelectivityCatalog.from_graph(graph, 4)
        assert (catalog.density > 0.5) is (density > 0.5)
        delta = random_delta(graph, seed=3)
        delta.apply(graph)
        patched = catalog.apply_delta(graph, delta)
        cold = SelectivityCatalog.from_graph(graph, 4)
        assert_streams_identical(patched.nonzero_arrays(), cold.nonzero_arrays())
        assert_streams_identical(patched.nonzero_arrays(), reference_nonzeros(graph, 4))


class TestStackedFrontierHelpers:
    def test_block_nonzero_counts(self):
        from scipy import sparse

        stacked = sparse.csr_matrix(
            np.array(
                [[1, 1, 0], [0, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=bool
            )
        )
        block_ptr = np.array([0, 2, 3, 4], dtype=np.int64)
        counts = block_nonzero_counts(stacked, block_ptr)
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 1, 3]

    def test_store_as_dict_materialises_requested_labels(self):
        graph = erdos_renyi_graph(30, 80, 3, seed=61)
        store = LabelMatrixStore(graph)
        mapping = store.as_dict()
        assert set(mapping) == set(store.labels)
        for label, matrix in mapping.items():
            assert matrix is store.matrix(label)
