#!/usr/bin/env python
"""Run every ``bench_*.py`` and emit one machine-readable JSON.

The script is the repo's benchmark-regression entry point: it executes the
whole pytest-benchmark suite in one invocation (so the session-scoped graph
and catalog fixtures are built once), then measures the headline numbers
directly — batch-vs-loop speedup on a ≥ 10k-path workload, cold-vs-warm
session build, the catalog numbers (cold-build wall time, npz artifact
size, the ``tracemalloc`` peak of a dense cold build at
``|L| = 6, k = 4``), the serving layer's
numbers (coalesced-vs-naive throughput at 32 concurrent clients plus the
single-flight build guarantee), and the incremental-update numbers
(delta-patched rebuild vs cold rebuild on a schema-structured graph) — and
writes everything to a single JSON document whose filename convention
(``BENCH_engine.json``) accumulates the perf trajectory over PRs.

Usage::

    python benchmarks/run_all.py --quick --json BENCH_engine.json

``--quick`` trims pytest-benchmark to one round per benchmark; the full run
uses the calibrated defaults.  Exit code is non-zero when the pytest run
fails or the acceptance numbers regress: batch speedup < 10×, a 256-path
sparse ``estimate_batch`` < 3× the per-path loop, warm build
rebuilding the catalog, a dense cold
catalog build peaking above 16 MiB of traced allocations (the bounded
frontier lost), coalesced serving throughput < 5× the naive
per-path loop at 32 concurrent clients, more than one build under
concurrent first access to one graph, an incremental delta rebuild
< 5× the cold rebuild when ≤ 10% of first-label subtrees are touched,
or any sparse-catalog floor: sparse histogram boundaries diverging from
the dense build of the same layout, ``repro serve`` exceeding 1 GiB peak
RSS on the |L|=20, k=6 graph (67M-path domain), or any chaos floor: availability
under fault injection < 99%, a hung request thread, a worker crash or
corrupt artifact that is not transparently healed, an open circuit
answering in ≥ 10 ms, or any serving-load floor: (on ≥ 4-core machines)
the pre-fork tier < 2× single-process QPS or p99 > 1.5× under 32
keep-alive clients, or each extra mmap worker costing > 25% of a private
catalog copy, or any remote-tier floor: a fresh replica warm-starting from
the shared artifact store < 10× faster than rebuilding, its estimates
diverging from the cold build, availability < 99% with the store down or
corrupting payloads, a corrupt payload escaping quarantine, the remote
circuit breaker never opening (or answering an open-circuit fetch in
≥ 10 ms), or a ``.tmp`` file left behind.  Floor failures are printed
*first*, one readable line each, and never as tracebacks — CI logs lead
with the failing floor.  Floors retired with the code they measured are
listed in ``RETIRED_FLOORS`` and recorded in the document.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# Allow running straight from a checkout without installing the package.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

# The smoke harness: the serve-RSS measurement shares the sparse scenario's
# workload spec and ceiling, so the recorded build/artifact numbers and the
# measured RSS always describe the same graph; the chaos section runs the
# fault-injection scenario in-process and shares its availability/fast-fail
# floors with the CI chaos scenario; the obs section runs the observability
# scenario in-process (metrics, traces, readiness) and adds the
# instrumentation-overhead floor on top.
import smoke  # noqa: E402

# The load section drives the real ``repro serve`` CLI over keep-alive
# connections, once single-process and once pre-forked, and shares its
# throughput/memory floors with the standalone CI load-smoke job.
import bench_load  # noqa: E402

# The remote section exercises the shared artifact store (warm-start value,
# corrupt-payload quarantine, outage degradation) and shares its floors
# with the standalone CI remote-smoke job.
import bench_remote  # noqa: E402

#: Workload size for the direct batch-vs-loop measurement.
BATCH_SIZE = 10_000

#: Acceptance floor for the batch speedup (see ISSUE/ROADMAP).
SPEEDUP_FLOOR = 10.0

#: Acceptance floor for the sparse read path: a per-path ``estimate`` loop
#: over ``estimate_batch`` on the serve-bulk-shaped sparse session (Zipf
#: graph, |L|=20, k=4), in batches of SPARSE_BATCH_PATHS paths.  Ranking is
#: that path's whole cost, so this floor pins the vectorised ranking kernel.
SPARSE_BATCH_SPEEDUP_FLOOR = 3.0
SPARSE_BATCH_PATHS = 256

#: Acceptance ceiling for the ``tracemalloc`` peak (MiB) of one cold build
#: of the dense Erdős–Rényi catalog graph (|L|=6, k=4).  The kernel's
#: bounded frontier peaks at ~2 MiB there; the unbounded level-wide
#: frontier it replaced peaked at ~50 MiB (~120 MiB at the full-run size).
BUILD_PEAK_MIB_CEILING = 16.0

#: Acceptance floor for the micro-batching scheduler over the naive
#: per-path estimate loop at SERVING_CLIENTS concurrent clients.
SERVING_SPEEDUP_FLOOR = 5.0
SERVING_CLIENTS = 32
SERVING_BUNDLE = 32

#: Acceptance floor for an incremental delta rebuild over a cold rebuild
#: when the delta touches at most DELTA_SUBTREE_FRACTION of the first-label
#: subtrees (the ISSUE's ≤ 10% regime).
DELTA_SPEEDUP_FLOOR = 5.0
DELTA_SUBTREE_FRACTION = 0.10
DELTA_EDGES = 100

#: Peak-RSS ceiling for serving the 67M-domain graph through ``repro
#: serve`` — shared with the sparse smoke scenario, which measures it in a
#: subprocess and enforces the same bound itself.
SPARSE_SERVE_RSS_CEILING_BYTES = smoke.SPARSE_RSS_CEILING_BYTES

#: Inner timeout for the sparse smoke subprocess.  Deliberately below the
#: CI step wrappers so a wedged smoke still surfaces as a one-line floor
#: failure from run_all rather than an opaque outer SIGTERM.
SPARSE_SMOKE_TIMEOUT_SECONDS = 240

#: Availability floor for the chaos scenario (fraction of requests that get
#: a clean answer while faults are being injected) and the ceiling for
#: answering a request against an open circuit — shared with the smoke.
CHAOS_AVAILABILITY_FLOOR = smoke.CHAOS_AVAILABILITY_FLOOR
CHAOS_FAST_FAIL_CEILING_SECONDS = smoke.CHAOS_FAST_FAIL_CEILING_SECONDS

#: Floors for the remote artifact tier — a fresh replica must warm-start
#: this much faster than rebuilding, builds must survive a dead/corrupting
#: store, and an open remote breaker must answer under the ceiling.
#: Shared with benchmarks/bench_remote.py, which enforces them standalone.
REMOTE_WARM_SPEEDUP_FLOOR = bench_remote.WARM_SPEEDUP_FLOOR
REMOTE_AVAILABILITY_FLOOR = bench_remote.AVAILABILITY_FLOOR
REMOTE_FAST_FAIL_CEILING_SECONDS = bench_remote.FAST_FAIL_CEILING_SECONDS

#: Acceptance floor for serving throughput with the full observability
#: stack on (metrics + per-request traces) relative to the kill-switched
#: baseline: instrumentation may cost at most 5% of throughput.
OBS_OVERHEAD_RATIO_FLOOR = 0.95

#: Floors retired because the code on one side of them was deleted — when
#: the matrix-chain kernel became the only catalog builder, and when the
#: sorted nonzero pair became the only catalog representation — with the
#: reason.  Recorded in the benchmark document and listed by
#: check_regression.py, so an older baseline that still carries them is
#: read knowingly.
RETIRED_FLOORS: dict[str, str] = {
    "catalog.columnar_speedup": "timed the columnar builder against the "
    "deleted dict builder (compute_selectivities)",
    "catalog.process_speedup": "timed the deleted process backend against "
    "the deleted serial DFS; never enforced on the recorded host",
    "sparse.matrix_speedup": "timed the matrix-chain kernel against the "
    "deleted sparse DFS; the kernel is now the only builder",
    "sparse.matrix_streams_identical": "compared the matrix-chain kernel "
    "with the deleted sparse DFS; the test suite's reference trie walk "
    "now checks the kernel",
    "catalog.artifact_npz_ratio": "compared the npz artifact with the "
    "deleted JSON catalog format",
    "sparse.build_speedup": "timed the nonzero build against the deleted "
    "dense build (compute_selectivity_vector)",
    "sparse.artifact_ratio": "compared the nonzero npz with the deleted "
    "dense npz layout of the same catalog",
}


#: Floors a section can record as measured but not enforced on its host,
#: with the flag that says so (``bench_load`` sets both flags from the core
#: count and the catalog size).  Reports print these as ``UNMEASURED``.
ENFORCEMENT_FLAGS: dict[tuple[str, str], str] = {
    ("load", "multi_speedup"): "speedup_floor_enforced",
    ("load", "p99_ratio"): "speedup_floor_enforced",
    ("load", "extra_worker_rss_fraction"): "rss_floor_enforced",
}


def unmeasured_reason(document: dict, section: str, metric: str) -> Optional[str]:
    """Why the floor on ``section.metric`` was recorded but not enforced, or None."""
    flag = ENFORCEMENT_FLAGS.get((section, metric))
    if flag is None:
        return None
    return bench_load.unenforced_reason(document.get(section) or {}, flag)


class FloorFailure(AssertionError):
    """A benchmark invariant failed; rendered as one readable line, not a
    traceback, so CI logs lead with the failing floor."""

QUICK_FLAGS = [
    "--benchmark-min-rounds=1",
    "--benchmark-max-time=0.1",
    "--benchmark-warmup=off",
]


def discover_bench_files() -> list[Path]:
    """All ``bench_*.py`` files, sorted by name."""
    return sorted(BENCH_DIR.glob("bench_*.py"))


def run_pytest_suite(quick: bool) -> dict[str, object]:
    """Run the whole benchmark suite once; return wall time + per-bench stats."""
    bench_files = discover_bench_files()
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest-benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            *[str(path) for path in bench_files],
            "-q",
            "-p",
            "no:cacheprovider",
            f"--benchmark-json={json_path}",
        ]
        if quick:
            command.extend(QUICK_FLAGS)
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
        wall_seconds = time.perf_counter() - started
        benchmarks: list[dict[str, object]] = []
        if json_path.exists():
            document = json.loads(json_path.read_text(encoding="utf-8"))
            for entry in document.get("benchmarks", []):
                stats = entry.get("stats", {})
                benchmarks.append(
                    {
                        "file": str(entry.get("fullname", "")).split("::")[0],
                        "name": entry.get("name"),
                        "group": entry.get("group"),
                        "mean_seconds": stats.get("mean"),
                        "stddev_seconds": stats.get("stddev"),
                        "min_seconds": stats.get("min"),
                        "rounds": stats.get("rounds"),
                    }
                )
    return {
        "exit_code": completed.returncode,
        "wall_seconds": wall_seconds,
        "files": [path.name for path in bench_files],
        "benchmarks": benchmarks,
    }


def measure_engine(quick: bool) -> dict[str, object]:
    """Directly measure the engine acceptance numbers.

    Returns batch-vs-loop timings on a ``BATCH_SIZE``-path workload and
    cold/warm session-build timings against a throwaway artifact cache.
    """
    import numpy as np

    from repro.datasets.registry import load_dataset
    from repro.engine import EngineConfig, EstimationSession
    from repro.paths.enumeration import enumerate_label_paths

    scale = 0.03 if quick else 0.05
    graph = load_dataset("moreno-health", scale=scale, seed=11)
    config = EngineConfig(max_length=3, ordering="sum-based", bucket_count=32)

    with tempfile.TemporaryDirectory() as cache_dir:
        started = time.perf_counter()
        cold = EstimationSession.build(graph, config, cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm = EstimationSession.build(graph, config, cache_dir=cache_dir)
        warm_seconds = time.perf_counter() - started

        domain = [
            str(path)
            for path in enumerate_label_paths(
                cold.catalog.labels, config.max_length
            )
        ]
        rng = np.random.default_rng(7)
        workload = [domain[i] for i in rng.integers(0, len(domain), BATCH_SIZE)]

        # Warm both paths once so neither pays one-time lazy costs in the
        # timed region, then time each over identical inputs.
        cold.estimate_batch(workload[:64])
        [cold.estimate(path) for path in workload[:64]]

        started = time.perf_counter()
        batch = cold.estimate_batch(workload)
        batch_seconds = time.perf_counter() - started

        started = time.perf_counter()
        loop = [cold.estimate(path) for path in workload]
        loop_seconds = time.perf_counter() - started

        parity = bool(np.allclose(batch, np.asarray(loop)))
        speedup = loop_seconds / batch_seconds if batch_seconds > 0 else float("inf")

        return {
            "dataset": "moreno-health",
            "scale": scale,
            "domain_size": cold.domain_size,
            "batch_paths": BATCH_SIZE,
            "batch_seconds": batch_seconds,
            "loop_seconds": loop_seconds,
            "batch_speedup": speedup,
            "batch_speedup_floor": SPEEDUP_FLOOR,
            "batch_matches_loop": parity,
            "cold_build_seconds": cold_seconds,
            "warm_build_seconds": warm_seconds,
            "cold_catalog_seconds": cold.stats.catalog_seconds,
            "warm_catalog_seconds": warm.stats.catalog_seconds,
            "warm_catalog_from_cache": warm.stats.catalog_from_cache,
            "warm_histogram_from_cache": warm.stats.histogram_from_cache,
            "warm_positions_from_cache": warm.stats.positions_from_cache,
        }


def measure_sparse_batch(quick: bool) -> tuple[dict[str, object], dict[str, object]]:
    """Measure the sparse read path and the orderings' batch ranking costs.

    On the serve-bulk-shaped sparse session (``zipf_labeled_graph(5000, 2000,
    20)``, ``k=4``, the 168,420-path domain kept sparse), each round draws
    one ``SPARSE_BATCH_PATHS``-path batch — half nonzero paths, half uniform
    samples of the domain, as the serve-bulk request stream mixes them —
    and times, alternating in one process, the batch through
    ``estimate_batch`` and through a per-path ``estimate`` loop.  The
    medians give ``engine.sparse_batch_speedup`` (floor-gated).  The same
    batches ranked by ``index_array`` under sum-based and num-alph give
    ``ordering.sum_vs_num_batch_ratio`` — the shape of the paper's Table 4
    (about 1.2x), reported and not gated.  Returns ``(engine additions,
    ordering section)``.
    """
    import numpy as np

    from repro.engine import EngineConfig, EstimationSession
    from repro.graph.generators import zipf_labeled_graph
    from repro.ordering.registry import make_ordering
    from repro.paths.index import domain_indices_to_paths

    rounds = 15 if quick else 60
    graph = zipf_labeled_graph(5000, 2000, 20, skew=1.0)
    session = EstimationSession.build(graph, EngineConfig(max_length=4))
    catalog = session.catalog
    nonzero, _ = catalog.nonzero_arrays()
    rng = np.random.default_rng(16)

    def draw_batch() -> list[str]:
        half = SPARSE_BATCH_PATHS // 2
        indices = np.concatenate(
            (
                rng.choice(nonzero, half),
                rng.integers(0, catalog.domain_size, SPARSE_BATCH_PATHS - half),
            )
        )
        rng.shuffle(indices)
        paths = domain_indices_to_paths(indices, catalog.labels, catalog.max_length)
        return [str(path) for path in paths]

    batches = [draw_batch() for _ in range(rounds)]
    sum_based = make_ordering("sum-based", catalog=catalog)
    num_alph = make_ordering("num-alph", catalog=catalog)
    # One-time costs (the offset tables, lazy caches) stay out of the
    # timed region.
    session.estimate_batch(batches[0])
    [session.estimate(path) for path in batches[0]]
    sum_based.index_array(batches[0])

    def timed(call, times: list) -> object:
        started = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - started)
        return result

    batch_times, loop_times, sum_times, num_times = [], [], [], []
    matches = True
    for batch in batches:
        estimates = timed(lambda: session.estimate_batch(batch), batch_times)
        looped = timed(lambda: [session.estimate(path) for path in batch], loop_times)
        matches = matches and bool(np.allclose(estimates, looped))
        timed(lambda: sum_based.index_array(batch), sum_times)
        timed(lambda: num_alph.index_array(batch), num_times)
    per_path = 1e6 / SPARSE_BATCH_PATHS
    batch_us = float(np.median(batch_times)) * per_path
    loop_us = float(np.median(loop_times)) * per_path
    sum_us = float(np.median(sum_times)) * per_path
    num_us = float(np.median(num_times)) * per_path
    engine = {
        "sparse_batch_workload": {
            "graph": "zipf_labeled_graph(5000, 2000, 20, skew=1.0)",
            "max_length": 4,
            "lazy_positions": bool(session.stats.extra.get("lazy_positions")),
            "domain_size": catalog.domain_size,
            "batch_paths": SPARSE_BATCH_PATHS,
            "rounds": rounds,
        },
        "sparse_loop_us_per_path": loop_us,
        "sparse_batch_us_per_path": batch_us,
        "sparse_batch_speedup": loop_us / batch_us if batch_us > 0 else float("inf"),
        "sparse_batch_speedup_floor": SPARSE_BATCH_SPEEDUP_FLOOR,
        "sparse_batch_matches_loop": matches,
    }
    ordering = {
        "labels": len(catalog.labels),
        "max_length": catalog.max_length,
        "batch_paths": SPARSE_BATCH_PATHS,
        "rounds": rounds,
        "num_alph_us_per_path": num_us,
        "sum_based_us_per_path": sum_us,
        "sum_vs_num_batch_ratio": sum_us / num_us if num_us > 0 else None,
        "paper_table4_ratio": 1.2,
    }
    return engine, ordering


def measure_catalog(quick: bool) -> dict[str, object]:
    """Directly measure the catalog acceptance numbers.

    Two generated graphs, both at the ISSUE scale ``|L| ≥ 6, k ≥ 4``:

    * a *sparse* one (``|L|=10, k=6``: a 1.1M-path domain dominated by zero
      subtrees) — its cold build time and the npz artifact size of its
      catalog (reported, not gated);
    * a *dense* one (``|L|=6, k=4``) where sparse matmuls dominate — its
      cold build time, and the ``tracemalloc`` peak of a second cold build,
      gated by ``BUILD_PEAK_MIB_CEILING``.
    """
    import tracemalloc

    import numpy as np

    from repro.graph.generators import erdos_renyi_graph, zipf_labeled_graph
    from repro.paths.catalog import SelectivityCatalog
    from repro.paths.enumeration import compute_selectivity_nonzeros

    # --- sparse cold catalog build (zero-dominated) -----------------------
    sparse_graph = zipf_labeled_graph(500, 500, 10, skew=0.8, seed=17, name="bench-sparse")
    sparse_k = 6
    started = time.perf_counter()
    catalog = SelectivityCatalog.from_graph(sparse_graph, sparse_k)
    cold_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as tmp:
        npz_path = Path(tmp) / "catalog.npz"
        catalog.save_npz(npz_path)
        npz_bytes = npz_path.stat().st_size

    # --- dense cold build: time, then traced peak -------------------------
    vertices, edges = (1600, 20000) if quick else (3000, 40000)
    dense_graph = erdos_renyi_graph(vertices, edges, 6, seed=23)
    dense_k = 4
    started = time.perf_counter()
    dense_nonzeros = compute_selectivity_nonzeros(dense_graph, dense_k)
    dense_seconds = time.perf_counter() - started
    tracemalloc.start()
    try:
        traced_nonzeros = compute_selectivity_nonzeros(dense_graph, dense_k)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if not all(map(np.array_equal, dense_nonzeros, traced_nonzeros)):
        raise FloorFailure("two cold builds of the dense graph disagree")

    return {
        "sparse_graph": {
            "labels": sparse_graph.label_count,
            "max_length": sparse_k,
            "vertices": sparse_graph.vertex_count,
            "edges": sparse_graph.edge_count,
            "domain_size": catalog.domain_size,
            "nonzero_paths": catalog.nnz,
        },
        "cold_build_seconds": cold_seconds,
        "artifact_npz_bytes": npz_bytes,
        "dense_graph": {
            "labels": dense_graph.label_count,
            "max_length": dense_k,
            "vertices": vertices,
            "edges": dense_graph.edge_count,
        },
        "dense_build_seconds": dense_seconds,
        "build_peak_mib": peak_bytes / 2**20,
        "build_peak_mib_ceiling": BUILD_PEAK_MIB_CEILING,
    }


def measure_serving(quick: bool) -> dict[str, object]:
    """Directly measure the serving layer's acceptance numbers.

    Two measurements:

    * **Coalescing throughput** — ``SERVING_CLIENTS`` threads each stream
      requests of ``SERVING_BUNDLE`` paths (the shape of a query optimizer
      asking for all interval estimates of one plan search).  The *naive*
      side answers each path with one ``session.estimate`` call — the
      status-quo per-request loop; the *coalesced* side routes the same
      traffic through the micro-batching ``EstimateScheduler``.  The floor
      is ``SERVING_SPEEDUP_FLOOR``x on total path throughput.
    * **Single-flight builds** — ``SERVING_CLIENTS`` threads request one
      unbuilt graph simultaneously; the registry must run exactly one build.
    """
    import threading

    import numpy as np

    from repro.datasets.registry import load_dataset
    from repro.engine import EngineConfig
    from repro.paths.enumeration import enumerate_label_paths
    from repro.serving import EstimateScheduler, SessionRegistry

    scale = 0.03 if quick else 0.05
    # Enough rounds that the 32 threads' startup cost does not dominate the
    # coalesced side (it finishes ~7x sooner than the naive side).
    rounds = 16 if quick else 32
    graph = load_dataset("moreno-health", scale=scale, seed=11)
    config = EngineConfig(max_length=3, ordering="sum-based", bucket_count=32)

    registry = SessionRegistry(default_config=config)
    registry.register("moreno", graph=graph)
    session = registry.get("moreno")
    domain = [
        str(path)
        for path in enumerate_label_paths(session.catalog.labels, config.max_length)
    ]
    rng = np.random.default_rng(7)
    workloads = [
        [
            [domain[i] for i in rng.integers(0, len(domain), SERVING_BUNDLE)]
            for _ in range(rounds)
        ]
        for _ in range(SERVING_CLIENTS)
    ]
    total_paths = SERVING_CLIENTS * rounds * SERVING_BUNDLE

    def run_clients(client) -> float:
        threads = [
            threading.Thread(target=client, args=(workload,))
            for workload in workloads
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    def naive_client(rounds_for_client):
        estimate = session.estimate
        for bundle in rounds_for_client:
            for path in bundle:
                estimate(path)

    def measure_coalesced() -> tuple[float, dict[str, object]]:
        scheduler = EstimateScheduler(registry, max_batch_paths=2048)
        try:

            def client(rounds_for_client):
                for bundle in rounds_for_client:
                    scheduler.submit_many("moreno", bundle).result()

            seconds = run_clients(client)
            return seconds, scheduler.stats.snapshot()
        finally:
            scheduler.close()

    # Warm both hot paths, then keep the best of three (thread scheduling
    # noise at 32 threads is substantial).
    session.estimate_batch(domain[:64])
    [session.estimate(path) for path in domain[:64]]
    naive_seconds = min(run_clients(naive_client) for _ in range(3))
    coalesced_runs = [measure_coalesced() for _ in range(3)]
    coalesced_seconds = min(seconds for seconds, _ in coalesced_runs)
    scheduler_stats = min(coalesced_runs, key=lambda run: run[0])[1]

    # Parity: the scheduler must answer exactly what the session answers.
    probe = workloads[0][0]
    with EstimateScheduler(registry, window_seconds=0.0) as scheduler:
        served = scheduler.submit_many("moreno", probe).result(timeout=60)
    parity = bool(np.allclose(served, session.estimate_batch(probe)))

    # Single-flight: N concurrent first requests, exactly one build.
    flight_registry = SessionRegistry(default_config=config)
    flight_registry.register("moreno", graph=graph)
    barrier = threading.Barrier(SERVING_CLIENTS)

    def first_access():
        barrier.wait()
        flight_registry.get("moreno")

    threads = [
        threading.Thread(target=first_access) for _ in range(SERVING_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    speedup = (
        naive_seconds / coalesced_seconds if coalesced_seconds > 0 else float("inf")
    )
    return {
        "dataset": "moreno-health",
        "scale": scale,
        "clients": SERVING_CLIENTS,
        "bundle_paths": SERVING_BUNDLE,
        "total_paths": total_paths,
        "naive_seconds": naive_seconds,
        "coalesced_seconds": coalesced_seconds,
        "naive_paths_per_second": total_paths / naive_seconds,
        "coalesced_paths_per_second": total_paths / coalesced_seconds,
        "coalesced_speedup": speedup,
        "coalesced_speedup_floor": SERVING_SPEEDUP_FLOOR,
        "coalesced_matches_direct": parity,
        "mean_batch_paths": scheduler_stats["mean_batch_paths"],
        "mean_coalesced_requests": scheduler_stats["mean_coalesced_requests"],
        "batches_total": scheduler_stats["batches_total"],
        "single_flight_clients": SERVING_CLIENTS,
        "single_flight_builds": flight_registry.stats.builds,
        "single_flight_waits": flight_registry.stats.single_flight_waits,
    }


def measure_delta(quick: bool) -> dict[str, object]:
    """Directly measure the incremental-update acceptance numbers.

    The workload is a schema-structured ring graph (label ``i`` connects
    layer ``i`` to layer ``i + 1``, so labels compose only along the
    schema): a ``DELTA_EDGES``-edge delta on one label can affect at most
    ``k`` of the ``|L|`` first-label subtrees — the ISSUE's ≤ 10% regime.
    Both sides are measured to the same finished product (the nonzero pair
    of the post-delta graph): *cold* runs ``compute_selectivity_nonzeros``
    from scratch, *incremental* runs ``update_selectivity_nonzeros``
    against the pre-delta pair.  The floor is ``DELTA_SPEEDUP_FLOOR``× with
    byte-identical results.
    """
    import random

    import numpy as np

    from repro.graph.delta import GraphDelta, affected_first_labels
    from repro.graph.generators import ring_labeled_graph
    from repro.paths.enumeration import (
        compute_selectivity_nonzeros,
        domain_size,
        update_selectivity_nonzeros,
    )

    # 40 labels, k=3: a one-label delta affects at most 3/40 = 7.5% of the
    # first-label subtrees, comfortably inside the ≤ 10% regime, and the
    # measured speedup (~8x) sits well clear of the 5x floor.
    label_count = 40
    layer_size = 200 if quick else 300
    edges_per_label = 1500 if quick else 3000
    max_length = 3
    rounds = 3

    graph = ring_labeled_graph(
        label_count, layer_size, edges_per_label, seed=17, name="bench-delta-ring"
    )
    old_indices, old_counts = compute_selectivity_nonzeros(graph, max_length)

    # A scripted delta on one mid-ring label: half removals of existing
    # edges, half additions between the label's layers.
    rng = random.Random(23)
    label = sorted(graph.labels())[label_count // 2]
    removals = rng.sample(list(graph.edges_with_label(label)), DELTA_EDGES // 2)
    layer = [str(i) for i in range(1, label_count + 1)].index(label)
    additions: set[tuple[int, str, int]] = set()
    while len(additions) < DELTA_EDGES - len(removals):
        source = layer * layer_size + rng.randrange(layer_size)
        target = ((layer + 1) % label_count) * layer_size + rng.randrange(layer_size)
        if not graph.has_edge(source, label, target):
            additions.add((source, label, target))
    delta = GraphDelta(additions=sorted(additions), removals=removals)
    updated = graph.copy()
    delta.apply(updated)

    affected = affected_first_labels(updated, delta, max_length)
    subtree_fraction = len(affected) / label_count
    if subtree_fraction > DELTA_SUBTREE_FRACTION:
        raise FloorFailure(
            f"delta workload touches {subtree_fraction:.0%} of first-label "
            f"subtrees (> {DELTA_SUBTREE_FRACTION:.0%}); the benchmark graph "
            "no longer localises deltas"
        )

    cold_seconds = float("inf")
    cold = None
    for _ in range(rounds):
        started = time.perf_counter()
        cold = compute_selectivity_nonzeros(updated, max_length)
        cold_seconds = min(cold_seconds, time.perf_counter() - started)

    incremental_seconds = float("inf")
    patched = None
    for _ in range(rounds):
        started = time.perf_counter()
        patched = update_selectivity_nonzeros(updated, max_length, old_indices, old_counts, delta)
        incremental_seconds = min(
            incremental_seconds, time.perf_counter() - started
        )

    matches = all(map(np.array_equal, cold, patched))
    speedup = (
        cold_seconds / incremental_seconds
        if incremental_seconds > 0
        else float("inf")
    )
    return {
        "graph": {
            "labels": label_count,
            "layer_size": layer_size,
            "edges": updated.edge_count,
            "max_length": max_length,
            "domain_size": domain_size(label_count, max_length),
        },
        "delta_edges": len(delta),
        "affected_subtrees": len(affected),
        "subtrees_total": label_count,
        "subtree_fraction": subtree_fraction,
        "subtree_fraction_ceiling": DELTA_SUBTREE_FRACTION,
        "cold_rebuild_seconds": cold_seconds,
        "incremental_seconds": incremental_seconds,
        "incremental_speedup": speedup,
        "incremental_speedup_floor": DELTA_SPEEDUP_FLOOR,
        "patched_matches_cold": matches,
    }


def measure_sparse(quick: bool) -> dict[str, object]:
    """Directly measure the sparse-catalog acceptance numbers.

    The workload is the dense-infeasible scenario: ``|L|=20, k=6`` (a
    67,368,420-path domain) on a 400-edge graph whose nonzero path set is
    tiny.  Three things are measured:

    * **Build** — the nonzero build's wall time, its npz artifact bytes and
      the catalog's resident bytes (reported, not gated).
    * **Histograms** — every histogram kind built over the
      :class:`~repro.histogram.sparse.SparseFrequencies` layout must place
      byte-identical bucket boundaries to the dense algorithms over the
      same layout's ``toarray()``.  Checked on the committed |L|=10, k=6
      benchmark graph (1,111,110-path domain) where the dense array is
      still cheap.
    * **Serving RSS** — ``benchmarks/smoke.py sparse`` serves the 67M
      domain through the real ``repro serve`` CLI in a subprocess; its
      peak RSS must stay under ``SPARSE_SERVE_RSS_CEILING_BYTES``.

    ``quick`` deliberately does not shrink this workload: the floors are
    only meaningful at the dense-infeasible scale, and the whole
    measurement costs a few seconds.
    """
    del quick  # the dense-infeasible workload *is* the measurement

    from repro.graph.generators import zipf_labeled_graph
    from repro.histogram import HISTOGRAM_KINDS, SparseFrequencies, domain_frequencies
    from repro.ordering.registry import make_ordering
    from repro.paths.catalog import SelectivityCatalog

    # --- cold build (|L|=20, k=6: a 67M-path domain) ----------------------
    spec = smoke.SPARSE_GRAPH_SPEC
    graph = zipf_labeled_graph(
        spec["vertices"],
        spec["edges"],
        spec["labels"],
        skew=spec["skew"],
        seed=spec["seed"],
        name="bench-sparse-20",
    )
    k = smoke.SPARSE_MAX_LENGTH
    started = time.perf_counter()
    catalog = SelectivityCatalog.from_graph(graph, k)
    build_seconds = time.perf_counter() - started
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = Path(tmp) / "catalog.npz"
        catalog.save_npz(artifact_path)
        artifact_bytes = artifact_path.stat().st_size

    # --- byte-identical histogram boundaries (1.1M-path domain) -----------
    histogram_graph = zipf_labeled_graph(500, 500, 10, skew=0.8, seed=17, name="bench-sparse")
    histogram_k = 6
    small = SelectivityCatalog.from_graph(histogram_graph, histogram_k)
    ordering = make_ordering("sum-based", catalog=small)
    sparse_layout = domain_frequencies(small, ordering)
    if not isinstance(sparse_layout, SparseFrequencies):
        raise FloorFailure("the 1.1M-path benchmark catalog no longer lays out sparsely")
    dense_layout = sparse_layout.toarray()
    buckets = 64
    boundary_kinds: dict[str, bool] = {}
    for kind, histogram_cls in sorted(HISTOGRAM_KINDS.items()):
        dense_histogram = histogram_cls(dense_layout, buckets)
        sparse_histogram = histogram_cls(sparse_layout, buckets)
        boundary_kinds[kind] = [
            (bucket.start, bucket.end) for bucket in dense_histogram.buckets
        ] == [(bucket.start, bucket.end) for bucket in sparse_histogram.buckets]
    boundaries_identical = all(boundary_kinds.values())

    # --- serve the 67M domain in < 1 GiB RSS (subprocess) -----------------
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    try:
        sparse_run = subprocess.run(
            [sys.executable, str(BENCH_DIR / "smoke.py"), "sparse", "--json", "-"],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=SPARSE_SMOKE_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired as exc:
        raise FloorFailure(f"smoke.py sparse wedged (> {SPARSE_SMOKE_TIMEOUT_SECONDS}s)") from exc
    serve: dict[str, object] = {}
    if sparse_run.returncode == 0:
        for line in reversed(sparse_run.stdout.strip().splitlines()):
            line = line.strip()
            if line.startswith("{"):
                serve = json.loads(line)
                break
    if not serve:
        raise FloorFailure(
            "smoke.py sparse failed: "
            + (sparse_run.stderr.strip().splitlines() or ["no output"])[-1]
        )

    return {
        "graph": {
            "labels": graph.label_count,
            "max_length": k,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "domain_size": catalog.domain_size,
            "nnz": catalog.nnz,
            "density": catalog.density,
        },
        "sparse_build_seconds": build_seconds,
        "sparse_artifact_bytes": artifact_bytes,
        "sparse_memory_bytes": catalog.memory_bytes(),
        "histogram_domain_size": small.domain_size,
        "histogram_nnz": small.nnz,
        "histogram_bucket_count": buckets,
        "histogram_boundaries_identical": boundaries_identical,
        "histogram_boundary_kinds": boundary_kinds,
        "serve_max_rss_bytes": serve.get("max_rss_bytes"),
        "serve_rss_ceiling_bytes": SPARSE_SERVE_RSS_CEILING_BYTES,
        "serve_build_seconds": serve.get("build_seconds"),
        "serve_session_memory_bytes": serve.get("session_memory_bytes"),
        "serve_ok": serve.get("ok", False),
    }


def measure_chaos(quick: bool) -> dict[str, object]:
    """The fault-injection scenario (``benchmarks/smoke.py chaos``).

    Runs in-process: injected worker crashes, on-disk artifact corruption,
    a doomed graph tripping its circuit breaker, and a backpressure burst
    against an 8-deep queue.  The recorded availability (clean answers /
    total requests under chaos) is floor-gated, as are the recovery
    booleans and the open-circuit fast-fail latency.
    """
    report = smoke.run_chaos(quick=quick)
    for failure in smoke.chaos_failures(report):
        raise FloorFailure(failure)
    return report


def measure_obs(quick: bool) -> dict[str, object]:
    """The observability scenario plus the instrumentation-overhead floor.

    First runs ``benchmarks/smoke.py obs`` in-process (Prometheus scrape
    coverage, trace retention, readiness transitions — every expectation is
    a hard gate).  Then measures what the instrumentation *costs* where it
    is actually paid: ``/estimate`` requests through the HTTP server, timed
    with the full stack on (metrics enabled, one trace per request, traces
    recorded and logged) and with both kill switches thrown
    (``metrics.set_enabled(False)`` + ``set_tracing_enabled(False)`` — the
    pre-instrumentation serving stack).  The switches alternate on every
    request so both sides sample the same short-term CPU state, and each
    side's cost is its *minimum* per-request latency — scheduling noise
    and CPU drift only ever add time, so the minima converge on the true
    fast-path costs while means and medians wander by more than the
    overhead being measured.  ``overhead_ratio`` is instrumented
    throughput over baseline throughput (``baseline_seconds /
    instrumented_seconds``) and must stay at or above
    :data:`OBS_OVERHEAD_RATIO_FLOOR`.
    """
    import threading

    import numpy as np

    from repro.datasets.registry import load_dataset
    from repro.engine import EngineConfig
    from repro.obs.metrics import set_enabled
    from repro.obs.tracing import set_tracing_enabled
    from repro.paths.enumeration import enumerate_label_paths
    from repro.serving import ServiceClient, SessionRegistry, make_server

    report = smoke.run_obs(quick=quick)
    for failure in smoke.obs_failures(report):
        raise FloorFailure(failure)

    iterations = 6 if quick else 10
    requests_per_run = 64
    bundle = 512
    graph = load_dataset("moreno-health", scale=0.03, seed=11)
    config = EngineConfig(max_length=3, ordering="sum-based", bucket_count=32)
    registry = SessionRegistry(default_config=config)
    registry.register("moreno", graph=graph)
    session = registry.get("moreno")
    domain = [
        str(path)
        for path in enumerate_label_paths(session.catalog.labels, config.max_length)
    ]
    rng = np.random.default_rng(7)
    bundles = [
        [domain[i] for i in rng.integers(0, len(domain), bundle)]
        for _ in range(requests_per_run)
    ]

    server = make_server(registry, port=0, window_seconds=0.001, max_batch_paths=2048)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    client = ServiceClient(base, timeout=60, max_retries=2)

    instrumented_latencies: list[float] = []
    baseline_latencies: list[float] = []
    try:
        # Warm: build the session, then two full untimed passes — loopback
        # serving drifts for the first few hundred requests (thread and
        # allocator warmup), and the ratio needs both sides past it.
        client.estimate("moreno", bundles[0])
        for _ in range(2):
            for bundle_paths in bundles:
                client.estimate("moreno", bundle_paths)
        try:
            for repetition in range(iterations):
                for index, bundle_paths in enumerate(bundles):
                    instrumented = (index + repetition) % 2 == 0
                    set_enabled(instrumented)
                    set_tracing_enabled(instrumented)
                    started = time.perf_counter()
                    client.estimate("moreno", bundle_paths)
                    elapsed = time.perf_counter() - started
                    if instrumented:
                        instrumented_latencies.append(elapsed)
                    else:
                        baseline_latencies.append(elapsed)
        finally:
            set_enabled(True)
            set_tracing_enabled(True)
    finally:
        server.shutdown()
        server.close()
        server_thread.join(timeout=15)
    instrumented_seconds = min(instrumented_latencies)
    baseline_seconds = min(baseline_latencies)
    overhead_ratio = (
        baseline_seconds / instrumented_seconds
        if instrumented_seconds > 0
        else float("inf")
    )
    report.update(
        {
            "overhead_requests_per_side": len(instrumented_latencies),
            "overhead_bundle_paths": bundle,
            "instrumented_seconds": instrumented_seconds,
            "baseline_seconds": baseline_seconds,
            "instrumented_paths_per_second": bundle / instrumented_seconds,
            "baseline_paths_per_second": bundle / baseline_seconds,
            "overhead_ratio": overhead_ratio,
            "overhead_ratio_floor": OBS_OVERHEAD_RATIO_FLOOR,
        }
    )
    return report


def measure_load(quick: bool) -> dict[str, object]:
    """The keep-alive serving-load scenario (see ``benchmarks/bench_load.py``).

    Starts the real ``repro serve`` CLI twice — ``--workers 1`` (private
    catalog copy) and ``--workers N`` (pre-fork tier over the shared sparse
    mmap sidecar) — and records p50/p99/QPS for both plus the per-worker
    PSS cost.  The throughput floors (multi >= 2x single QPS, p99 <= 1.5x)
    are enforced on >= 4-core machines; the memory floor (each extra worker
    <= 25% of a private catalog copy) whenever the fleet and catalog are
    big enough to measure it.
    """
    return bench_load.run_load_bench(quick)


def measure_remote(quick: bool) -> dict[str, object]:
    """The remote artifact tier (see ``benchmarks/bench_remote.py``).

    Runs in-process against a live artifact server on an ephemeral port:
    replicas' cold builds seed the store, fresh replicas warm-start from
    it (floor-gated median speedup and estimate equality), then the store
    corrupts every payload in flight and finally dies — builds must
    quarantine the damage, degrade to cold builds, trip the circuit
    breaker, fast-fail once open, and leave no ``.tmp`` debris.
    """
    report = bench_remote.run_remote_bench(quick=quick)
    for failure in bench_remote.collect_failures(report):
        raise FloorFailure(failure)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one-round benchmarks and a smaller engine graph (CI smoke mode)",
    )
    parser.add_argument(
        "--json",
        default="BENCH_engine.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--skip-suite",
        action="store_true",
        help="skip the pytest-benchmark suite, emit only the engine numbers",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        suite = None if args.skip_suite else run_pytest_suite(args.quick)
        engine = measure_engine(args.quick)
        sparse_batch, ordering = measure_sparse_batch(args.quick)
        engine.update(sparse_batch)
        catalog = measure_catalog(args.quick)
        serving = measure_serving(args.quick)
        delta = measure_delta(args.quick)
        sparse = measure_sparse(args.quick)
        chaos = measure_chaos(args.quick)
        obs = measure_obs(args.quick)
        load = measure_load(args.quick)
        remote = measure_remote(args.quick)
    except FloorFailure as exc:
        # A broken invariant (builders disagreeing, a degenerate workload)
        # is a floor failure, not a crash: one readable line, exit 1.
        print(f"benchmark regression: {exc}", file=sys.stderr)
        return 1
    total_seconds = time.perf_counter() - started

    document = {
        "schema": "repro-bench/v13",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "generated_unix": time.time(),
        "total_wall_seconds": total_seconds,
        "engine": engine,
        "ordering": ordering,
        "catalog": catalog,
        "serving": serving,
        "delta": delta,
        "sparse": sparse,
        "chaos": chaos,
        "obs": obs,
        "load": load,
        "remote": remote,
        "retired_floors": RETIRED_FLOORS,
    }
    if suite is not None:
        document["suite"] = suite

    output = Path(args.json)
    output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    failures = collect_floor_failures(document)

    # Failures lead the output — CI logs show the failing floor before the
    # summary prose.
    for failure in failures:
        print(f"benchmark regression: {failure}", file=sys.stderr)

    def load_floor(metric: str, value: str) -> str:
        reason = unmeasured_reason(document, "load", metric)
        return value if reason is None else f"UNMEASURED ({reason})"

    load_speedup = load_floor("multi_speedup", _format_ratio(load["multi_speedup"]))
    load_p99 = load_floor("p99_ratio", _format_ratio(load["p99_ratio"]))
    load_rss = load_floor(
        "extra_worker_rss_fraction",
        _format_fraction(load["extra_worker_rss_fraction"]),
    )

    print(
        f"wrote {output} — batch speedup {engine['batch_speedup']:.1f}x "
        f"on {engine['batch_paths']} paths, sparse batch "
        f"{engine['sparse_batch_speedup']:.1f}x vs the per-path loop "
        f"(sum-based ranks at {ordering['sum_vs_num_batch_ratio']:.2f}x "
        f"num-alph), warm catalog from cache: "
        f"{engine['warm_catalog_from_cache']}, dense build peak "
        f"{catalog['build_peak_mib']:.1f} MiB traced, serving coalesced "
        f"{serving['coalesced_speedup']:.1f}x "
        f"vs naive at {serving['clients']} clients "
        f"({serving['single_flight_builds']} build under concurrent first "
        f"access), delta rebuild {delta['incremental_speedup']:.1f}x vs cold "
        f"({delta['affected_subtrees']}/{delta['subtrees_total']} subtrees), "
        f"sparse build {sparse['sparse_build_seconds']:.2f}s at "
        f"{sparse['graph']['domain_size'] / 1e6:.0f}M domain (serve RSS "
        f"{_format_rss(sparse['serve_max_rss_bytes'])}), chaos availability "
        f"{chaos['availability']:.4f} over {chaos['requests_total']} requests "
        f"(circuit fast-fail {chaos['circuit_fast_fail_seconds'] * 1000:.2f}ms), "
        f"obs overhead ratio {obs['overhead_ratio']:.3f} "
        f"(floor {obs['overhead_ratio_floor']}), "
        f"load {load['workers']}-worker {load['multi_qps']:.0f} qps vs "
        f"single {load['single_qps']:.0f} qps on {load['cpu_count']} cores "
        f"(speedup {load_speedup}, p99 ratio {load_p99}, extra-worker RSS "
        f"{load_rss} of a private copy), "
        f"remote warm-start {remote['warm_speedup']:.1f}x vs cold with "
        f"availability {remote['availability']:.4f} under store faults "
        f"(breaker fast-fail "
        f"{remote['breaker_fast_fail_seconds'] * 1000:.2f}ms), "
        f"total {total_seconds:.1f}s"
    )
    return 0 if not failures else 1


def _format_rss(rss_bytes: object) -> str:
    if not isinstance(rss_bytes, (int, float)):
        return "n/a"
    return f"{rss_bytes / 2**20:.0f}MiB"


def _format_ratio(ratio: object) -> str:
    if not isinstance(ratio, (int, float)):
        return "n/a"
    return f"{ratio:.2f}x"


def _format_fraction(fraction: object) -> str:
    if not isinstance(fraction, (int, float)):
        return "n/a"
    return f"{fraction:.1%}"


def collect_floor_failures(document: dict) -> list[str]:
    """Every floor the measured document violates, one readable line each.

    Shared with ``benchmarks/check_regression.py``, which re-evaluates a
    freshly measured document against the floors recorded in the committed
    baseline.
    """
    engine = document["engine"]
    catalog = document["catalog"]
    serving = document["serving"]
    delta = document["delta"]
    sparse = document["sparse"]
    suite = document.get("suite")

    failures: list[str] = []
    if not engine["batch_matches_loop"]:
        failures.append("batch estimates diverge from the per-path loop")
    if engine["batch_speedup"] < engine.get("batch_speedup_floor", SPEEDUP_FLOOR):
        failures.append(
            f"batch speedup {engine['batch_speedup']:.1f}x "
            f"< {engine.get('batch_speedup_floor', SPEEDUP_FLOOR)}x"
        )
    if not engine["warm_catalog_from_cache"]:
        failures.append("warm build rebuilt the catalog")
    if not engine["sparse_batch_matches_loop"]:
        failures.append("sparse batch estimates diverge from the per-path loop")
    sparse_batch_floor = engine.get(
        "sparse_batch_speedup_floor", SPARSE_BATCH_SPEEDUP_FLOOR
    )
    if engine["sparse_batch_speedup"] < sparse_batch_floor:
        failures.append(
            f"sparse batch speedup {engine['sparse_batch_speedup']:.1f}x "
            f"< {sparse_batch_floor}x over the per-path loop "
            f"({engine['sparse_batch_us_per_path']:.2f} vs "
            f"{engine['sparse_loop_us_per_path']:.2f} us/path)"
        )
    peak_ceiling = catalog.get("build_peak_mib_ceiling", BUILD_PEAK_MIB_CEILING)
    if catalog["build_peak_mib"] > peak_ceiling:
        failures.append(
            f"dense cold catalog build peaked at {catalog['build_peak_mib']:.1f} "
            f"MiB traced (ceiling {peak_ceiling} MiB): the builder's frontier "
            "is no longer bounded"
        )
    if not serving["coalesced_matches_direct"]:
        failures.append("scheduler estimates diverge from direct estimate_batch")
    serving_floor = serving.get("coalesced_speedup_floor", SERVING_SPEEDUP_FLOOR)
    if serving["coalesced_speedup"] < serving_floor:
        failures.append(
            f"coalesced serving speedup {serving['coalesced_speedup']:.1f}x "
            f"< {serving_floor}x at {serving['clients']} clients"
        )
    if serving["single_flight_builds"] != 1:
        failures.append(
            f"single-flight violated: {serving['single_flight_builds']} builds "
            f"for {serving['single_flight_clients']} concurrent first requests"
        )
    if not delta["patched_matches_cold"]:
        failures.append("delta-patched nonzeros diverge from the cold rebuild")
    delta_floor = delta.get("incremental_speedup_floor", DELTA_SPEEDUP_FLOOR)
    if delta["incremental_speedup"] < delta_floor:
        failures.append(
            f"incremental delta rebuild {delta['incremental_speedup']:.1f}x "
            f"< {delta_floor}x vs cold ({delta['affected_subtrees']}/"
            f"{delta['subtrees_total']} subtrees touched)"
        )
    if not sparse["histogram_boundaries_identical"]:
        broken = sorted(
            kind
            for kind, identical in sparse.get("histogram_boundary_kinds", {}).items()
            if not identical
        )
        failures.append(
            "sparse histogram boundaries diverge from the dense algorithms"
            + (f" ({', '.join(broken)})" if broken else "")
        )
    # A locally measured document always has serve_ok=true (measure_sparse
    # raises before writing one otherwise); these branches exist for
    # check_regression.py, which re-evaluates documents measured elsewhere
    # (possibly merged with the committed baseline's floors).
    if not sparse.get("serve_ok", False):
        failures.append("sparse serve smoke failed")
    rss = sparse.get("serve_max_rss_bytes")
    rss_ceiling = sparse.get(
        "serve_rss_ceiling_bytes", SPARSE_SERVE_RSS_CEILING_BYTES
    )
    if isinstance(rss, (int, float)) and rss >= rss_ceiling:
        failures.append(
            f"sparse serve peak RSS {_format_rss(rss)} >= "
            f"{_format_rss(rss_ceiling)} for the "
            f"{sparse['graph']['domain_size']:,}-entry domain"
        )
    chaos = document.get("chaos")
    if chaos is None:
        failures.append("chaos section missing from the benchmark document")
    else:
        failures.extend(smoke.chaos_failures(chaos))
    obs = document.get("obs")
    if obs is None:
        failures.append("obs section missing from the benchmark document")
    else:
        failures.extend(smoke.obs_failures(obs))
        ratio = obs.get("overhead_ratio")
        ratio_floor = obs.get("overhead_ratio_floor", OBS_OVERHEAD_RATIO_FLOOR)
        if ratio is not None and ratio < ratio_floor:
            failures.append(
                f"observability overhead: instrumented serving runs at "
                f"{ratio:.1%} of the kill-switched baseline "
                f"(floor {ratio_floor:.0%})"
            )
    load = document.get("load")
    if load is None:
        failures.append("load section missing from the benchmark document")
    else:
        failures.extend(bench_load.collect_failures(load))
    remote = document.get("remote")
    if remote is None:
        failures.append("remote section missing from the benchmark document")
    else:
        failures.extend(bench_remote.collect_failures(remote))
    if suite is not None and suite["exit_code"] != 0:
        failures.append("pytest-benchmark suite failed")
    return failures


if __name__ == "__main__":
    sys.exit(main())
