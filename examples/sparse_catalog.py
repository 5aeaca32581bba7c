"""Sparse catalogs: serving a label-path domain the dense path cannot hold.

A ``|L| = 20, k = 6`` alphabet spans 67,368,420 label paths.  Storing one
``int64`` selectivity per path costs ~512 MB *per session* before counting
the engine's position table — yet a realistic graph at that scale has a few
hundred paths with nonzero selectivity.  The catalog stores only those
(O(nnz) memory); this walkthrough shows that it answers every path of the
domain, and runs a full estimation session plus an incremental delta
update on it.

Run with::

    PYTHONPATH=src python examples/sparse_catalog.py
"""

from __future__ import annotations

import numpy as np

from repro.engine import EngineConfig, EstimationSession
from repro.graph.delta import GraphDelta
from repro.graph.generators import zipf_labeled_graph
from repro.histogram.builder import dense_layout
from repro.paths.catalog import SelectivityCatalog

LABELS = 20
MAX_LENGTH = 6


def main() -> None:
    graph = zipf_labeled_graph(
        2000, 400, LABELS, skew=0.5, seed=29, name="large-alphabet"
    )
    print(
        f"graph: {graph.vertex_count} vertices, {graph.edge_count} edges, "
        f"{graph.label_count} labels"
    )

    # ------------------------------------------------------------------
    # 1. The catalog: O(nnz) instead of O(|Lk|)
    # ------------------------------------------------------------------
    catalog = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
    dense_bytes = 8 * catalog.domain_size  # what a dense int64 vector would cost
    print(
        f"domain |Lk| = {catalog.domain_size:,} paths, "
        f"nonzero = {catalog.nnz} ({catalog.density:.2e} density)"
    )
    print(
        f"resident bytes: {catalog.memory_bytes():,} vs a dense vector's "
        f"{dense_bytes:,} ({dense_bytes / catalog.memory_bytes():,.0f}x)"
    )

    # Every path of the domain has an answer: paths not stored read 0.
    busiest = max(catalog.nonzero_paths(), key=catalog.selectivity)
    print(f"busiest path: {busiest} with f = {catalog.selectivity(busiest)}")
    absent = "/".join([catalog.labels[0]] * MAX_LENGTH)
    print(f"absent path {absent!r} reads f = {catalog.selectivity(absent)}")

    # Sessions lay a small domain out densely (a position table and a dense
    # histogram array) and a large, mostly-zero one sparsely.
    small = SelectivityCatalog.from_graph(graph, 2)
    for name, shown in (("k=2", small), (f"k={MAX_LENGTH}", catalog)):
        layout = "dense" if dense_layout(shown.domain_size, shown.nnz) else "sparse"
        print(f"{name} catalog ({shown.domain_size:,} paths): {layout} layout")

    # ------------------------------------------------------------------
    # 2. A full estimation session — histogram included — in O(nnz)
    # ------------------------------------------------------------------
    config = EngineConfig(max_length=MAX_LENGTH, ordering="sum-based", bucket_count=64)
    session = EstimationSession.build(graph, config)
    workload = [str(path) for path in catalog.nonzero_paths()[:10]]
    estimates = session.estimate_batch(workload)
    print(
        f"session memory: {session.memory_bytes():,} bytes "
        f"(lazy positions={session.stats.extra.get('lazy_positions')})"
    )
    for path, estimate in zip(workload[:5], estimates[:5]):
        print(f"  e({path}) = {estimate:10.2f}   true f = {session.true_selectivity(path)}")

    # ------------------------------------------------------------------
    # 3. Incremental updates patch only the affected subtree ranges
    # ------------------------------------------------------------------
    label = str(busiest)[0] if "/" not in str(busiest) else str(busiest).split("/")[0]
    removal = next(iter(graph.edges_with_label(label)))
    delta = GraphDelta(removals=[removal])
    updated = session.update(delta)
    print(
        f"delta: removed one {label!r} edge -> "
        f"{updated.stats.extra.get('delta_affected_subtrees')}/"
        f"{updated.stats.extra.get('delta_subtrees_total')} subtrees recomputed, "
        f"catalog nnz {updated.catalog.nnz}"
    )

    # The patched catalog equals a cold rebuild of the post-delta graph.
    cold = SelectivityCatalog.from_graph(updated.graph, MAX_LENGTH)
    patched_indices, patched_counts = updated.catalog.nonzero_arrays()
    cold_indices, cold_counts = cold.nonzero_arrays()
    assert np.array_equal(patched_indices, cold_indices)
    assert np.array_equal(patched_counts, cold_counts)
    print("patched catalog == cold rebuild: OK")


if __name__ == "__main__":
    main()
