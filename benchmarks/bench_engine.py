"""Benchmarks: the batched estimation engine.

Tracks the two claims the engine makes: (1) ``estimate_batch`` beats a
per-path ``estimate`` loop by an order of magnitude on large workloads, and
(2) a warm artifact cache turns a session build into pure artifact loading
(no catalog construction).  ``benchmarks/run_all.py`` additionally measures
both claims directly and records the numbers in ``BENCH_engine.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, EstimationSession
from repro.paths.enumeration import enumerate_label_paths

#: Workload size for the batch-vs-loop comparison (the acceptance threshold
#: is ≥ 10× on ≥ 10k paths).
BATCH_SIZE = 10_000

ENGINE_CONFIG = EngineConfig(max_length=3, ordering="sum-based", bucket_count=32)


@pytest.fixture(scope="module")
def engine_session(bench_graphs) -> EstimationSession:
    """A session over the Moreno stand-in (built once per module, no cache)."""
    return EstimationSession.build(bench_graphs["moreno-health"], ENGINE_CONFIG)


@pytest.fixture(scope="module")
def engine_workload(engine_session) -> list[str]:
    """10k paths sampled uniformly from the full domain (deterministic)."""
    catalog = engine_session.catalog
    domain = [
        str(path)
        for path in enumerate_label_paths(catalog.labels, catalog.max_length)
    ]
    rng = np.random.default_rng(7)
    return [domain[i] for i in rng.integers(0, len(domain), BATCH_SIZE)]


def test_estimate_batch_10k(benchmark, engine_session, engine_workload):
    estimates = benchmark(engine_session.estimate_batch, engine_workload)
    assert estimates.shape == (BATCH_SIZE,)


def test_estimate_loop_10k(benchmark, engine_session, engine_workload):
    def per_path_loop():
        estimate = engine_session.estimate
        return [estimate(path) for path in engine_workload]

    estimates = benchmark(per_path_loop)
    assert len(estimates) == BATCH_SIZE


def test_batch_matches_loop(engine_session, engine_workload):
    batch = engine_session.estimate_batch(engine_workload)
    loop = np.array([engine_session.estimate(path) for path in engine_workload])
    assert np.allclose(batch, loop)


def test_session_cold_build(benchmark, bench_graphs):
    session = benchmark.pedantic(
        EstimationSession.build,
        args=(bench_graphs["moreno-health"], ENGINE_CONFIG),
        rounds=1,
        iterations=1,
    )
    assert not session.stats.catalog_from_cache


def test_session_warm_build(benchmark, bench_graphs, tmp_path):
    graph = bench_graphs["moreno-health"]
    EstimationSession.build(graph, ENGINE_CONFIG, cache_dir=tmp_path)  # pre-warm

    session = benchmark(
        lambda: EstimationSession.build(graph, ENGINE_CONFIG, cache_dir=tmp_path)
    )
    assert session.stats.catalog_from_cache
    assert session.stats.histogram_from_cache


def test_catalog_build(benchmark, bench_graphs):
    from repro.paths.catalog import SelectivityCatalog

    catalog = benchmark.pedantic(
        SelectivityCatalog.from_graph,
        args=(bench_graphs["moreno-health"], 3),
        rounds=1,
        iterations=1,
    )
    assert catalog.domain_size == 258
