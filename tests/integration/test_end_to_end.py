"""Integration tests: the full pipeline from raw graph to paper findings.

Each test exercises several subsystems together (generator → catalog →
ordering → histogram → estimator → metrics), asserting the qualitative
results the paper reports rather than any single module's behaviour.
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.estimation.errors import mean_error_rate
from repro.estimation.estimator import PathSelectivityEstimator
from repro.estimation.workload import full_domain_workload
from repro.graph.io import read_edge_list, write_edge_list
from repro.histogram.builder import build_histogram, domain_frequencies
from repro.ordering.registry import make_ordering, make_paper_orderings
from repro.paths.catalog import SelectivityCatalog


@pytest.fixture(scope="module")
def er_catalog():
    """A small synthetic (uniform-label) dataset, where the paper reports the
    largest sum-based advantage."""
    graph = load_dataset("snap-er", scale=0.004, seed=13)
    return SelectivityCatalog.from_graph(graph, 3)


class TestPaperFindings:
    def test_sum_based_beats_native_orderings_on_synthetic_data(self, er_catalog):
        """Figure 2's headline: sum-based has the lowest mean error rate."""
        bucket_count = max(4, er_catalog.domain_size // 20)
        workload = full_domain_workload(er_catalog)
        errors = {}
        for name, ordering in make_paper_orderings(er_catalog).items():
            estimator = PathSelectivityEstimator.build(
                er_catalog, ordering=ordering, bucket_count=bucket_count
            )
            pairs = [
                (estimator.estimate(path), float(er_catalog.selectivity(path)))
                for path in workload
            ]
            errors[name] = mean_error_rate(pairs)
        others = {name: value for name, value in errors.items() if name != "sum-based"}
        assert errors["sum-based"] <= min(others.values()) + 1e-9

    def test_cardinality_ranking_beats_alphabetical(self, er_catalog):
        """Second-order Figure 2 finding: *-card orderings beat *-alph ones."""
        bucket_count = max(4, er_catalog.domain_size // 20)
        sse = {}
        for name in ("num-alph", "num-card", "lex-alph", "lex-card"):
            ordering = make_ordering(name, catalog=er_catalog)
            histogram = build_histogram(er_catalog, ordering, bucket_count=bucket_count)
            sse[name] = histogram.total_sse()
        assert sse["num-card"] <= sse["num-alph"] + 1e-9
        assert sse["lex-card"] <= sse["lex-alph"] + 1e-9

    def test_ideal_ordering_is_the_floor(self, er_catalog):
        bucket_count = max(4, er_catalog.domain_size // 20)
        orderings = make_paper_orderings(er_catalog, include_ideal=True)
        sse = {
            name: build_histogram(er_catalog, ordering, bucket_count=bucket_count).total_sse()
            for name, ordering in orderings.items()
        }
        floor = sse.pop("ideal")
        assert all(floor <= value + 1e-9 for value in sse.values())

    def test_every_ordering_layout_is_a_permutation_of_the_same_multiset(self, er_catalog):
        layouts = []
        for _, ordering in make_paper_orderings(er_catalog).items():
            frequencies = domain_frequencies(er_catalog, ordering)
            layouts.append(sorted(frequencies.tolist()))
        for layout in layouts[1:]:
            assert layout == layouts[0]


class TestPipelinePersistence:
    def test_graph_and_catalog_round_trip_preserve_estimates(self, tmp_path, er_catalog):
        graph = load_dataset("moreno-health", scale=0.02)
        edge_path = tmp_path / "graph.tsv"
        write_edge_list(graph, edge_path)
        reloaded_graph = read_edge_list(edge_path, name=graph.name)
        # Edge-list files stringify vertex identifiers, so compare structure
        # (stringified edges and counts) rather than object identity.
        original_edges = {(str(e.source), e.label, str(e.target)) for e in graph.edges()}
        reloaded_edges = {
            (str(e.source), e.label, str(e.target)) for e in reloaded_graph.edges()
        }
        assert reloaded_edges == original_edges
        assert reloaded_graph.label_edge_counts() == graph.label_edge_counts()

        catalog = SelectivityCatalog.from_graph(graph, 2)
        catalog_path = tmp_path / "catalog.npz"
        catalog.save_npz(catalog_path)
        reloaded = SelectivityCatalog.load_npz(catalog_path)

        estimator_a = PathSelectivityEstimator.build(
            catalog, ordering="sum-based", bucket_count=12
        )
        estimator_b = PathSelectivityEstimator.build(
            reloaded, ordering="sum-based", bucket_count=12
        )
        for path in full_domain_workload(catalog):
            assert estimator_a.estimate(path) == pytest.approx(estimator_b.estimate(path))

    def test_estimation_stays_consistent_across_histogram_kinds(self, er_catalog):
        """All histogram kinds answer every domain query without error and
        preserve total mass exactly."""
        ordering = make_ordering("sum-based", catalog=er_catalog)
        frequencies = domain_frequencies(er_catalog, ordering)
        for kind in ("equi-width", "equi-depth", "maxdiff", "end-biased", "v-optimal"):
            histogram = build_histogram(
                er_catalog, ordering, kind=kind, bucket_count=16, frequencies=frequencies
            )
            total = sum(
                histogram.estimate_index(i) for i in range(er_catalog.domain_size)
            )
            assert total == pytest.approx(float(frequencies.sum()), rel=1e-6)
