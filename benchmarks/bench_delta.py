"""Benchmarks: incremental catalog updates vs cold rebuilds.

Tracks the incremental-update claim: on a schema-structured graph (labels
compose only along the schema, so an edge delta localises to few first-label
subtrees) ``update_selectivity_nonzeros`` beats a cold
``compute_selectivity_nonzeros`` by rebuilding only the affected subtrees.
``benchmarks/run_all.py`` measures the acceptance floor (≥ 5× when ≤ 10% of
subtrees are touched) directly and records it in ``BENCH_engine.json``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.generators import ring_labeled_graph
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    update_selectivity_nonzeros,
)

#: Ring shape: enough labels that a k-hop delta footprint stays a small
#: fraction of the first-label subtrees.
LABEL_COUNT = 20
LAYER_SIZE = 200
EDGES_PER_LABEL = 1500
MAX_LENGTH = 3
DELTA_EDGES = 100


@pytest.fixture(scope="module")
def delta_setup():
    """(post-delta graph, pre-delta nonzero pair, delta) over the ring graph."""
    graph = ring_labeled_graph(
        LABEL_COUNT, LAYER_SIZE, EDGES_PER_LABEL, seed=17, name="bench-ring"
    )
    old = compute_selectivity_nonzeros(graph, MAX_LENGTH)
    rng = random.Random(23)
    label = sorted(graph.labels())[LABEL_COUNT // 2]
    removals = rng.sample(list(graph.edges_with_label(label)), DELTA_EDGES // 2)
    layer = [str(i) for i in range(1, LABEL_COUNT + 1)].index(label)
    additions: set[tuple[int, str, int]] = set()
    while len(additions) < DELTA_EDGES // 2:
        source = layer * LAYER_SIZE + rng.randrange(LAYER_SIZE)
        target = ((layer + 1) % LABEL_COUNT) * LAYER_SIZE + rng.randrange(LAYER_SIZE)
        if not graph.has_edge(source, label, target):
            additions.add((source, label, target))
    delta = GraphDelta(additions=sorted(additions), removals=removals)
    updated = graph.copy()
    delta.apply(updated)
    return updated, old, delta


def test_cold_rebuild(benchmark, delta_setup):
    updated, _, _ = delta_setup
    indices, _ = benchmark(compute_selectivity_nonzeros, updated, MAX_LENGTH)
    assert indices.size > 0


def test_incremental_update(benchmark, delta_setup):
    updated, old, delta = delta_setup
    indices, counts = benchmark(update_selectivity_nonzeros, updated, MAX_LENGTH, *old, delta)
    assert indices.size == counts.size > 0


def test_incremental_matches_cold(delta_setup):
    updated, old, delta = delta_setup
    cold = compute_selectivity_nonzeros(updated, MAX_LENGTH)
    patched = update_selectivity_nonzeros(updated, MAX_LENGTH, *old, delta)
    assert all(map(np.array_equal, cold, patched))


def test_delta_footprint_is_local(delta_setup):
    updated, _, delta = delta_setup
    affected = affected_first_labels(updated, delta, MAX_LENGTH)
    assert 0 < len(affected) <= MAX_LENGTH
