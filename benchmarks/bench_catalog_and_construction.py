"""Benchmarks: catalog construction and histogram construction.

Not a paper table, but the two dominant offline costs of the approach: the
one-off exact evaluation of every label path (catalog build) and the
per-ordering histogram construction.  Tracked so regressions in the
substrate show up even when the experiment-level benchmarks still pass.
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.graph.generators import zipf_labeled_graph
from repro.histogram.builder import domain_frequencies, make_histogram
from repro.ordering.registry import make_ordering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import compute_selectivity_nonzeros, domain_size


def test_catalog_build_k3(benchmark):
    graph = load_dataset("moreno-health", scale=0.05)
    catalog = benchmark.pedantic(
        SelectivityCatalog.from_graph, args=(graph, 3), rounds=1, iterations=1
    )
    assert catalog.domain_size == 258


def test_catalog_build_k4(benchmark):
    graph = load_dataset("moreno-health", scale=0.05)
    catalog = benchmark.pedantic(
        SelectivityCatalog.from_graph, args=(graph, 4), rounds=1, iterations=1
    )
    assert catalog.domain_size == 1554


@pytest.fixture(scope="module")
def sparse_bench_graph():
    """A zero-subtree-dominated graph (|L|=8, k=6 domain of ~300k paths)."""
    return zipf_labeled_graph(400, 400, 8, skew=0.8, seed=17, name="bench-sparse")


def test_nonzeros_build_sparse_k6(benchmark, sparse_bench_graph):
    """The O(nnz) build over a 299,592-path domain."""
    indices, counts = benchmark.pedantic(
        compute_selectivity_nonzeros,
        args=(sparse_bench_graph, 6),
        rounds=1,
        iterations=1,
    )
    assert indices.size == counts.size > 0
    assert int(indices.max()) < domain_size(8, 6) == 299_592


@pytest.mark.parametrize("kind", ["equi-width", "equi-depth", "maxdiff", "end-biased", "v-optimal"])
def test_histogram_construction(benchmark, moreno_catalog, kind):
    ordering = make_ordering("sum-based", catalog=moreno_catalog)
    frequencies = domain_frequencies(moreno_catalog, ordering)
    histogram = benchmark(make_histogram, frequencies, kind, 32)
    assert histogram.bucket_count <= 32


def test_domain_frequency_layout(benchmark, moreno_catalog):
    ordering = make_ordering("sum-based", catalog=moreno_catalog)
    frequencies = benchmark(domain_frequencies, moreno_catalog, ordering)
    assert frequencies.shape == (moreno_catalog.domain_size,)
