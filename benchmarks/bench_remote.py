#!/usr/bin/env python
"""Remote artifact tier: warm-start value and graceful degradation.

Measures the two promises the shared artifact store makes, in one
in-process scenario against a live ``ArtifactHTTPServer`` on an ephemeral
port:

1. **Warm-start value** — a replica's cold build is pushed to the store;
   a fresh replica (empty local cache) must then warm-start by fetching the
   verified artifacts at least :data:`WARM_SPEEDUP_FLOOR` times faster than
   rebuilding them.  :data:`WARM_SAMPLES` cold builds and as many warm
   starts, each in a fresh local cache, are timed, and the floor gates the
   median cold build over the median warm start: one ~14 ms warm start
   against one ~140 ms build swung the ratio across 9.8–18×.
2. **Graceful degradation** — with the store killed mid-fleet, and again
   with the store corrupting every payload in flight (bit-flips injected at
   the ``remote.fetch`` fault point), every build must still complete by
   falling back to a cold build: availability (successful builds / total)
   must clear :data:`AVAILABILITY_FLOOR`, corrupt payloads must land in
   quarantine (never be loaded), the circuit breaker must fast-fail in
   under :data:`FAST_FAIL_CEILING_SECONDS` once open, and no ``.tmp``
   debris may remain in any cache directory afterwards.

Run directly (CI) or via ``run_all.py``, which records the numbers in
``BENCH_engine.json`` under the ``remote`` section and enforces the floors.

Usage::

    python benchmarks/bench_remote.py [--json remote-report.json] [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: A fresh replica must warm-start at least this much faster than building.
WARM_SPEEDUP_FLOOR = 10.0

#: Cold builds, and warm starts, timed for the warm-start floor.
WARM_SAMPLES = 5

#: Fraction of builds that must succeed with the remote tier down/corrupting.
AVAILABILITY_FLOOR = 0.99

#: Ceiling for a fetch answered against an open circuit breaker.
FAST_FAIL_CEILING_SECONDS = 0.010

#: Open-circuit probes measured for the fast-fail bound (min is reported).
FAST_FAIL_PROBES = 5


def run_remote_bench(quick: bool = False) -> dict[str, object]:
    """Run the full remote-tier scenario; returns the JSON-ready report."""
    from repro.engine import ArtifactCache, EngineConfig, EstimationSession
    from repro.engine.remote import RemoteArtifactStore
    from repro.graph.generators import zipf_labeled_graph
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.artifacts import make_artifact_server
    from repro.testing import bitflip_bytes, injector

    outage_builds = 5 if quick else 10
    corrupt_builds = 5 if quick else 10

    graph = zipf_labeled_graph(80, 400, 3, skew=1.0, seed=13, name="remote-g")
    config = EngineConfig(max_length=7, bucket_count=16)

    injector.reset()
    report: dict[str, object] = {
        "quick": quick,
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "availability_floor": AVAILABILITY_FLOOR,
        "fast_fail_ceiling_seconds": FAST_FAIL_CEILING_SECONDS,
    }
    caches: list[ArtifactCache] = []

    with tempfile.TemporaryDirectory(prefix="repro-remote-") as workdir:
        root = Path(workdir)
        server = make_artifact_server(
            root / "store", port=0, metrics=MetricsRegistry()
        )
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        try:
            # Phase 1: replicas build cold, each with an empty local cache
            # and an empty store, and push; the last one's pushes stay.
            cold_samples = []
            for index in range(WARM_SAMPLES):
                for stored in (root / "store").iterdir():
                    stored.unlink()
                seeder = ArtifactCache(root / f"cold-{index}", remote=RemoteArtifactStore(url))
                caches.append(seeder)
                started = time.perf_counter()
                cold = EstimationSession.build(graph, config, cache_dir=seeder)
                cold_samples.append(time.perf_counter() - started)
                seeder.remote.flush(timeout=60)
                if seeder.remote.pushes < 3:
                    raise AssertionError(
                        f"cold build pushed {seeder.remote.pushes} artifacts, "
                        "expected the catalog/histogram/positions trio"
                    )

            # Phase 2: fresh replicas warm-start from the store.
            probe_paths = ["1/2/3", "2/2", "3/1/2/3"]
            expected = list(cold.estimate_batch(probe_paths))
            warm_samples = []
            from_cache = matches = True
            remote_hits = 0
            for index in range(WARM_SAMPLES):
                warm_cache = ArtifactCache(root / f"warm-{index}", remote=RemoteArtifactStore(url))
                caches.append(warm_cache)
                started = time.perf_counter()
                warm = EstimationSession.build(graph, config, cache_dir=warm_cache)
                warm_samples.append(time.perf_counter() - started)
                from_cache = from_cache and warm.stats.catalog_from_cache
                matches = matches and list(warm.estimate_batch(probe_paths)) == expected
                remote_hits += warm_cache.remote_hits
            cold_seconds = statistics.median(cold_samples)
            warm_seconds = statistics.median(warm_samples)
            report.update(
                {
                    "cold_build_seconds": cold_seconds,
                    "warm_start_seconds": warm_seconds,
                    "cold_build_samples": cold_samples,
                    "warm_start_samples": warm_samples,
                    "warm_speedup": cold_seconds / warm_seconds,
                    "warm_catalog_from_cache": from_cache,
                    "warm_matches_cold": matches,
                    "remote_hits": remote_hits,
                    "pushes": seeder.remote.pushes,
                }
            )

            # Phase 3: the store starts corrupting every payload in flight.
            # Builds must quarantine the damage and fall back cold.
            injector.arm("remote.fetch", mutate=bitflip_bytes, times=-1)
            corrupt_ok = 0
            try:
                for index in range(corrupt_builds):
                    cache = ArtifactCache(
                        root / f"corrupt-{index}",
                        remote=RemoteArtifactStore(url),
                    )
                    caches.append(cache)
                    try:
                        session = EstimationSession.build(
                            graph, config, cache_dir=cache
                        )
                    except Exception:  # noqa: BLE001 - availability counts
                        continue
                    # A corrupt payload must never be adopted as a warm hit.
                    if not session.stats.catalog_from_cache:
                        corrupt_ok += 1
            finally:
                injector.reset()
            quarantined = sum(
                cache.quarantined for cache in caches[-corrupt_builds:]
            )
            report.update(
                {
                    "corrupt_builds": corrupt_builds,
                    "corrupt_builds_ok": corrupt_ok,
                    "corrupt_quarantined": quarantined,
                }
            )
        finally:
            server.shutdown()
            server.server_close()
            server_thread.join(timeout=15)

        # Phase 4: the store is dead (listener gone).  Builds must degrade
        # to cold; the breaker must open and then fast-fail.
        outage_ok = 0
        breaker_store = RemoteArtifactStore(
            url, timeout=1.0, max_retries=1, backoff_seconds=0.0
        )
        for index in range(outage_builds):
            cache = ArtifactCache(
                root / f"outage-{index}",
                remote=RemoteArtifactStore(
                    url, timeout=1.0, max_retries=1, backoff_seconds=0.0
                ),
            )
            caches.append(cache)
            try:
                session = EstimationSession.build(graph, config, cache_dir=cache)
            except Exception:  # noqa: BLE001 - availability counts
                continue
            if session.domain_size > 0:
                outage_ok += 1

        # Trip the breaker explicitly, then time open-circuit fetches.
        sink = root / "breaker-probe"
        sink.mkdir()
        attempts = 0
        while not breaker_store.breaker_open and attempts < 10:
            breaker_store.fetch("catalog-probe.npz", sink / "catalog-probe.npz")
            attempts += 1
        fast_fails = []
        for _ in range(FAST_FAIL_PROBES):
            started = time.perf_counter()
            outcome = breaker_store.fetch(
                "catalog-probe.npz", sink / "catalog-probe.npz"
            )
            fast_fails.append(time.perf_counter() - started)
            if outcome != "unavailable":
                raise AssertionError(
                    f"open breaker returned {outcome!r}, expected unavailable"
                )
        total = outage_builds + corrupt_builds
        ok = outage_ok + report["corrupt_builds_ok"]
        debris = sum(len(cache.temp_files()) for cache in caches)
        debris += len(list((root / "store").glob(".*.tmp*")))
        report.update(
            {
                "outage_builds": outage_builds,
                "outage_builds_ok": outage_ok,
                "requests_total": total,
                "availability": ok / total if total else 1.0,
                "breaker_opened": breaker_store.breaker_open,
                "breaker_fast_fail_seconds": min(fast_fails),
                "tmp_debris": debris,
            }
        )
    return report


def collect_failures(report: dict[str, object]) -> list[str]:
    """Every remote-tier floor the report violates, one readable line each."""
    failures: list[str] = []
    warm_floor = report.get("warm_speedup_floor", WARM_SPEEDUP_FLOOR)
    if report["warm_speedup"] < warm_floor:
        failures.append(
            f"remote warm-start {report['warm_speedup']:.1f}x < {warm_floor}x "
            f"vs the cold build (median {report['warm_start_seconds'] * 1000:.0f}ms "
            f"vs {report['cold_build_seconds'] * 1000:.0f}ms)"
        )
    if not report.get("warm_catalog_from_cache", False):
        failures.append("remote warm-start rebuilt the catalog")
    if not report.get("warm_matches_cold", False):
        failures.append("remote warm-start estimates diverge from the cold build")
    floor = report.get("availability_floor", AVAILABILITY_FLOOR)
    if report["availability"] < floor:
        failures.append(
            f"availability {report['availability']:.4f} < {floor} with the "
            f"remote store down/corrupting "
            f"({report['requests_total']} builds)"
        )
    if report.get("corrupt_quarantined", 0) < 1:
        failures.append("no corrupt remote payload was quarantined")
    if not report.get("breaker_opened", False):
        failures.append("the dead store never tripped the circuit breaker")
    ceiling = report.get("fast_fail_ceiling_seconds", FAST_FAIL_CEILING_SECONDS)
    if report["breaker_fast_fail_seconds"] >= ceiling:
        failures.append(
            f"open breaker answered in "
            f"{report['breaker_fast_fail_seconds'] * 1000:.1f}ms "
            f">= {ceiling * 1000:.0f}ms ceiling"
        )
    if report.get("tmp_debris", 0):
        failures.append(
            f"{report['tmp_debris']} .tmp debris file(s) left behind"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the scenario, report floors, exit non-zero on breach."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, help="write the report to this path")
    parser.add_argument(
        "--quick", action="store_true", help="fewer fault builds (CI smoke mode)"
    )
    args = parser.parse_args(argv)
    try:
        report = run_remote_bench(quick=args.quick)
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        print(f"remote FAILURE: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    failures = collect_failures(report)
    for failure in failures:
        print(f"remote FAILURE: {failure}", file=sys.stderr)
    print(
        f"remote: warm-start {report['warm_speedup']:.1f}x vs cold "
        f"(median {report['warm_start_seconds'] * 1000:.0f}ms vs "
        f"{report['cold_build_seconds'] * 1000:.0f}ms over {WARM_SAMPLES} each, "
        f"{report['remote_hits']} remote hits), availability "
        f"{report['availability']:.4f} over {report['requests_total']} builds "
        f"with the store down/corrupting "
        f"({report['corrupt_quarantined']} payload(s) quarantined), breaker "
        f"fast-fail {report['breaker_fast_fail_seconds'] * 1000:.2f}ms, "
        f"tmp debris {report['tmp_debris']}"
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
