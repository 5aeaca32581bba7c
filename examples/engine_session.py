"""Example: the batched estimation engine with artifact caching.

Builds an :class:`~repro.engine.EstimationSession` over a dataset stand-in,
demonstrates the warm-start behaviour of the artifact cache, and compares
the vectorised batch hot path against a per-path estimate loop.

Run with::

    PYTHONPATH=src python examples/engine_session.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.datasets.registry import load_dataset
from repro.engine import EngineConfig, EstimationSession
from repro.paths.enumeration import enumerate_label_paths


def main() -> None:
    graph = load_dataset("moreno-health", scale=0.05, seed=3)
    config = EngineConfig(max_length=3, ordering="sum-based", bucket_count=32)

    with tempfile.TemporaryDirectory() as cache_dir:
        print("== cold build (artifacts computed and cached) ==")
        session = EstimationSession.build(graph, config, cache_dir=cache_dir)
        for key, value in session.stats.as_row().items():
            print(f"  {key}: {value}")

        print("\n== warm build (artifacts loaded, catalog construction skipped) ==")
        warm = EstimationSession.build(graph, config, cache_dir=cache_dir)
        for key, value in warm.stats.as_row().items():
            print(f"  {key}: {value}")

        # A 10k-path workload sampled from the domain.
        domain = [
            str(path)
            for path in enumerate_label_paths(
                session.catalog.labels, config.max_length
            )
        ]
        rng = np.random.default_rng(0)
        workload = [domain[i] for i in rng.integers(0, len(domain), 10_000)]

        start = time.perf_counter()
        batch = session.estimate_batch(workload)
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        loop = [session.estimate(path) for path in workload]
        loop_seconds = time.perf_counter() - start

        assert np.allclose(batch, np.asarray(loop))
        print(
            f"\n== batch hot path ==\n"
            f"  {len(workload)} paths: batch {batch_seconds * 1000:.2f} ms, "
            f"loop {loop_seconds * 1000:.2f} ms "
            f"({loop_seconds / batch_seconds:.1f}x faster)"
        )

        sample = workload[0]
        print(
            f"\n  example: e({sample}) = {session.estimate(sample):.1f}, "
            f"true f = {session.true_selectivity(sample)}"
        )


if __name__ == "__main__":
    main()
