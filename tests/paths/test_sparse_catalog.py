"""Input-form equivalence of :class:`SelectivityCatalog`.

A catalog built from a dense frequency vector and one built by the nonzero
builder are the same logical catalog — identical lookups, aggregates,
persistence and delta patches — held in the one representation, the sorted
nonzero pair.  The dense/sparse choice that remains is the consumers'
layout predicate, :func:`~repro.histogram.builder.dense_layout`.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.graph.delta import GraphDelta
from repro.graph.generators import zipf_labeled_graph
from repro.histogram.builder import SPARSE_LAYOUT_MIN_DOMAIN, dense_layout
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import compute_selectivity_nonzeros


def cold_vector(graph, max_length):
    """The nonzero builder's output scattered over the canonical domain."""
    return SelectivityCatalog.from_graph(graph, max_length).frequency_vector()


@pytest.fixture(scope="module")
def sparse_graph():
    """A 10-label graph whose k=4 domain (11,110 paths) is mostly zero."""
    return zipf_labeled_graph(150, 220, 10, skew=0.8, seed=13, name="sparse-mod")


@pytest.fixture(scope="module")
def catalog_pair(sparse_graph):
    """(built from the dense vector, built from the nonzero pair)."""
    sparse = SelectivityCatalog.from_graph(sparse_graph, 4)
    dense = SelectivityCatalog(
        sparse.labels, 4, sparse.frequency_vector(), graph_name=sparse.graph_name
    )
    return dense, sparse


class TestStorageModes:
    def test_from_graph_modes_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert np.array_equal(dense.frequency_vector(), sparse.frequency_vector())
        di, dv = dense.nonzero_arrays()
        si, sv = sparse.nonzero_arrays()
        assert np.array_equal(di, si)
        assert np.array_equal(dv, sv)

    def test_auto_resolves_sparse_for_large_sparse_domain(self, sparse_graph):
        auto = SelectivityCatalog.from_graph(sparse_graph, 4)
        assert auto.domain_size >= SPARSE_LAYOUT_MIN_DOMAIN
        assert not dense_layout(auto.domain_size, auto.nnz)

    def test_auto_resolves_dense_for_small_domain(self, sparse_graph):
        auto = SelectivityCatalog.from_graph(sparse_graph, 2)
        assert auto.domain_size < SPARSE_LAYOUT_MIN_DOMAIN
        assert dense_layout(auto.domain_size, auto.nnz)

    def test_auto_on_dense_vector_respects_density(self):
        # |L|=2, k=12 -> domain 8190, above the domain threshold.
        domain = 2**13 - 2
        assert domain >= SPARSE_LAYOUT_MIN_DOMAIN
        dense_vector = np.arange(1, domain + 1, dtype=np.int64)
        dense = SelectivityCatalog(["a", "b"], 12, dense_vector)
        assert dense_layout(dense.domain_size, dense.nnz)
        sparse_vector = np.zeros(domain, dtype=np.int64)
        sparse_vector[7] = 5
        sparse = SelectivityCatalog(["a", "b"], 12, sparse_vector)
        assert not dense_layout(sparse.domain_size, sparse.nnz)
        # The boundary: exactly 25% nonzero is still sparse, one more is not.
        assert not dense_layout(4096, 1024)
        assert dense_layout(4096, 1025)
        assert dense_layout(4095, 0)

    def test_point_and_batch_lookups_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        for path in dense.nonzero_paths()[:25]:
            assert sparse.selectivity(path) == dense.selectivity(path)
        assert sparse.label_selectivities() == dense.label_selectivities()
        indices = np.arange(0, dense.domain_size, 97, dtype=np.int64)
        assert np.array_equal(
            sparse.selectivities_at(indices), dense.selectivities_at(indices)
        )

    def test_aggregates_and_len_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.total_selectivity() == dense.total_selectivity()
        assert sparse.max_selectivity() == dense.max_selectivity()
        assert len(sparse) == len(dense) == dense.domain_size
        assert sparse.nnz == dense.nnz
        assert sparse.density == dense.density

    def test_memory_bytes_is_o_nnz(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.memory_bytes() == dense.memory_bytes() == 16 * sparse.nnz
        assert sparse.memory_bytes() < 8 * dense.domain_size / 4

    def test_restrict_preserves_storage_and_values(self, catalog_pair):
        dense, sparse = catalog_pair
        restricted = sparse.restrict(2)
        assert restricted.domain_size == dense.restrict(2).domain_size
        assert np.array_equal(
            restricted.frequency_vector(), dense.restrict(2).frequency_vector()
        )

    def test_nonzero_paths_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.nonzero_paths() == dense.nonzero_paths()


class TestSparseValidation:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(PathError, match="strictly increasing"):
            SelectivityCatalog(["a", "b"], 3, (np.array([5, 2]), np.array([1, 1])))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(PathError, match="strictly increasing"):
            SelectivityCatalog(["a", "b"], 3, (np.array([2, 2]), np.array([1, 1])))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(PathError, match="out of range"):
            SelectivityCatalog(["a", "b"], 2, (np.array([6]), np.array([1])))

    def test_rejects_negative_values(self):
        with pytest.raises(PathError, match="negative selectivity"):
            SelectivityCatalog(["a", "b"], 2, (np.array([1]), np.array([-4])))

    def test_explicit_zero_values_are_dropped(self):
        catalog = SelectivityCatalog(["a", "b"], 2, (np.array([0, 3]), np.array([2, 0])))
        assert catalog.nnz == 1
        assert catalog.selectivity("a") == 2


class TestMappingBranch:
    def test_duplicate_paths_are_detected(self):
        with pytest.raises(PathError, match="duplicate path"):
            SelectivityCatalog(["a", "b"], 2, {"a/b": 1, ("a", "b"): 2})

    def test_negative_value_names_the_path(self):
        with pytest.raises(PathError, match="negative selectivity for a/b"):
            SelectivityCatalog(["a", "b"], 2, {"a": 1, "a/b": -3})

    def test_mapping_with_sparse_storage_covers_domain(self):
        catalog = SelectivityCatalog(["a", "b"], 2, {"a": 3, "a/b": 0})
        assert len(catalog) == catalog.domain_size
        assert "b/b" in catalog
        assert catalog.nnz == 1
        assert catalog.selectivity("a/b") == 0

    def test_full_mapping_sparse_matches_dense(self, catalog_pair):
        dense, _ = catalog_pair
        mapping = {str(path): value for path, value in dense.items()}
        rebuilt = SelectivityCatalog(dense.labels, dense.max_length, mapping)
        assert np.array_equal(rebuilt.frequency_vector(), dense.frequency_vector())


class TestPersistence:
    def test_npz_round_trips_both_modes(self, catalog_pair, tmp_path):
        dense, sparse = catalog_pair
        for catalog, name in ((dense, "dense"), (sparse, "sparse")):
            target = tmp_path / f"{name}.npz"
            catalog.save_npz(target)
            loaded = SelectivityCatalog.load_npz(target)
            assert np.array_equal(
                loaded.frequency_vector(), catalog.frequency_vector()
            )
            assert loaded.graph_name == catalog.graph_name

    def test_sparse_npz_stores_only_nonzero_arrays(self, catalog_pair, tmp_path):
        # The on-disk layout is O(nnz): gap-encoded indices plus counts.
        _, sparse = catalog_pair
        target = tmp_path / "s.npz"
        sparse.save_npz(target)
        with np.load(target, allow_pickle=False) as archive:
            assert sorted(archive.files) == [
                "format_version",
                "graph_name",
                "labels",
                "max_length",
                "nz_gaps",
                "nz_values",
            ]
            assert int(archive["format_version"]) == 3
            gaps = archive["nz_gaps"]
            assert gaps.size == sparse.nnz
            assert bool(np.all(gaps > 0))
            assert np.array_equal(np.cumsum(gaps) - 1, sparse.nonzero_arrays()[0])

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_format_versions_are_refused(self, catalog_pair, tmp_path, version):
        dense, _ = catalog_pair
        target = tmp_path / f"v{version}.npz"
        arrays = {
            "format_version": np.asarray(version, dtype=np.int64),
            "labels": np.asarray(dense.labels, dtype=np.str_),
            "max_length": np.asarray(dense.max_length, dtype=np.int64),
            "graph_name": np.asarray(dense.graph_name, dtype=np.str_),
            "frequencies": dense.frequency_vector(),
        }
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PathError, match=f"format version {version}"):
            SelectivityCatalog.load_npz(target)

    def test_pickle_and_deepcopy_round_trip(self, catalog_pair):
        _, sparse = catalog_pair
        for copied in (pickle.loads(pickle.dumps(sparse)), copy.deepcopy(sparse)):
            assert copied.labels == sparse.labels
            assert np.array_equal(copied.nonzero_arrays()[0], sparse.nonzero_arrays()[0])
            path = sparse.nonzero_paths()[3]
            assert copied.selectivity(path) == sparse.selectivity(path)

    def test_corrupt_gap_raises(self, catalog_pair, tmp_path):
        _, sparse = catalog_pair
        target = tmp_path / "bad.npz"
        sparse.save_npz(target)
        with np.load(target, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["nz_gaps"] = arrays["nz_gaps"].copy()
        arrays["nz_gaps"][3] = 0  # a repeated index
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PathError, match="strictly increasing"):
            SelectivityCatalog.load_npz(target)


class TestSparseDelta:
    def test_apply_delta_matches_cold_rebuild(self, sparse_graph, catalog_pair):
        dense, sparse = catalog_pair
        label = sorted(sparse_graph.labels())[1]
        removals = list(sparse_graph.edges_with_label(label))[:4]
        additions = [(0, label, 1)]
        additions = [
            triple
            for triple in additions
            if not sparse_graph.has_edge(*triple)
        ]
        delta = GraphDelta(additions=additions, removals=removals)
        updated = sparse_graph.copy()
        delta.apply(updated)

        patched_sparse = sparse.apply_delta(updated, delta)
        patched_dense = dense.apply_delta(updated, delta)
        cold_indices, _ = compute_selectivity_nonzeros(updated, 4)
        assert np.array_equal(patched_sparse.nonzero_arrays()[0], cold_indices)
        cold = cold_vector(updated, 4)
        assert np.array_equal(patched_sparse.frequency_vector(), cold)
        assert np.array_equal(patched_dense.frequency_vector(), cold)
        assert not sparse.delta_requires_full_rebuild(updated)

    def test_alphabet_change_falls_back_and_keeps_storage(self, sparse_graph, catalog_pair):
        _, sparse = catalog_pair
        delta = GraphDelta(additions=[(0, "zz-new", 1)])
        updated = sparse_graph.copy()
        delta.apply(updated)
        assert sparse.delta_requires_full_rebuild(updated)
        rebuilt = sparse.apply_delta(updated, delta)
        assert rebuilt.labels == tuple(sorted(updated.labels()))
        assert np.array_equal(rebuilt.frequency_vector(), cold_vector(updated, 4))


class TestEdgeCases:
    def test_all_zero_subtree_label(self):
        # A label in the alphabet with no edges at all: its whole first-label
        # subtree is zero and must simply be absent from the sparse arrays.
        graph = zipf_labeled_graph(40, 60, 3, skew=0.6, seed=5)
        labels = sorted(graph.labels()) + ["unused"]
        sparse = SelectivityCatalog.from_graph(graph, 3, labels=labels)
        assert sparse.nnz > 0
        assert all("unused" not in path.labels for path in sparse.nonzero_paths())
        assert sparse.selectivity("unused") == 0
        assert sparse.selectivity("unused/unused") == 0

    def test_empty_sparse_catalog(self):
        empty = SelectivityCatalog(
            ["a", "b"],
            3,
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
        )
        assert empty.nnz == 0
        assert empty.total_selectivity() == 0
        assert empty.max_selectivity() == 0
        assert empty.selectivity("a/b/a") == 0
        assert np.array_equal(
            empty.selectivities_at([0, 1, 2]), np.zeros(3, dtype=np.int64)
        )
        assert empty.nonzero_paths() == []

    def test_single_nonzero_catalog(self):
        one = SelectivityCatalog(["a", "b"], 3, (np.array([5]), np.array([7])))
        assert one.nnz == 1
        assert [str(path) for path in one.nonzero_paths()] == ["b/b"]
        assert one.selectivity("b/b") == 7
        assert one.total_selectivity() == 7
        items = dict(one.items())
        assert len(items) == one.domain_size
        assert sum(items.values()) == 7
