"""The build workload's worker process.

Usage: ``python3 perfbench/build_worker.py JOB_JSON``

Reads the graph, runs one cold ``EstimationSession.build`` into an empty
artifact directory and prints ``ready <seconds>``.  On ``exit`` it stops
there (a set-up repetition); on ``go`` it runs the timed phase — cycles of
a cold build into a fresh directory, a warm build from what it wrote and
one update of the set-up session, until the job's seconds are spent —
writes ``report.json`` into the job's work directory and prints ``done``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def dir_bytes(path: str) -> int:
    """Bytes in the files under ``path``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(path)
        for name in files
    )


def stage_row(session) -> dict:
    stats = session.stats
    return {
        "fingerprint": stats.extra.get("fingerprint_seconds", 0.0),
        "catalog": stats.catalog_seconds,
        "positions": stats.positions_seconds,
        "histogram": stats.histogram_seconds,
        "total": stats.total_seconds,
    }


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    recorder = None
    if job["traced"]:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder, serving=False)
    from repro.engine import EngineConfig, EstimationSession
    from repro.graph.io import read_edge_list

    config = EngineConfig(**job["config"])
    graph = read_edge_list(job["graph"])
    # Updates change their session's graph in place: the update chain
    # gets its own copy, so every cold build sees the original graph.
    chain_graph = read_edge_list(job["graph"])
    chain_dir = f"{job['work']}-chain-{os.getpid()}"
    started = time.perf_counter()
    session = EstimationSession.build(chain_graph, config, cache_dir=chain_dir)
    print(f"ready {time.perf_counter() - started:.6f}", flush=True)
    try:
        if sys.stdin.readline().strip() != "go":
            return 0
        report = timed_phase(job, graph, config, session)
    finally:
        shutil.rmtree(chain_dir, ignore_errors=True)
    report["peak_rss_mb"] = vm_hwm_mb()
    report["spans"] = recorder.spans if recorder is not None else []
    with open(os.path.join(job["work"], "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    print("done", flush=True)
    return 0


def timed_phase(job: dict, graph, config, session) -> dict:
    """Cycles of cold build, warm build and one update; then the probe estimates."""
    from repro.engine import EstimationSession
    from repro.graph.delta import GraphDelta

    shutil.rmtree(job["work"], ignore_errors=True)
    os.makedirs(job["work"])
    cold_ms, warm_ms, stages, warm_hits, updates = [], [], [], [], []
    deltas = iter(job["deltas"])
    op_dir = None
    phase_start = time.perf_counter()
    deadline = phase_start + job["seconds"]
    while True:
        if op_dir is not None:
            shutil.rmtree(op_dir)
        op_dir = os.path.join(job["work"], f"op-{len(cold_ms)}")
        began = time.perf_counter()
        cold = EstimationSession.build(graph, config, cache_dir=op_dir)
        between = time.perf_counter()
        warm = EstimationSession.build(graph, config, cache_dir=op_dir)
        ended = time.perf_counter()
        cold_ms.append((between - began) * 1000.0)
        warm_ms.append((ended - between) * 1000.0)
        stages.append(stage_row(cold))
        warm_hits.append(bool(warm.stats.catalog_from_cache and warm.stats.histogram_from_cache))
        delta = next(deltas, None)
        if delta is not None:
            began = time.perf_counter()
            session = session.update(GraphDelta.from_dict(delta))
            ended = time.perf_counter()
            extra = session.stats.extra
            updates.append(
                {
                    "ms": (ended - began) * 1000.0,
                    "additions": extra.get("delta_additions"),
                    "removals": extra.get("delta_removals"),
                    "affected": extra.get("delta_affected_subtrees"),
                    "total": extra.get("delta_subtrees_total"),
                }
            )
        if ended >= deadline:
            break
    phase_end = time.perf_counter()
    probes = job["probes"]
    return {
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "warm_hits": warm_hits,
        "stages": stages,
        "window": [phase_start, phase_end],
        "cold_estimates": cold.estimate_batch(probes).tolist(),
        "warm_estimates": warm.estimate_batch(probes).tolist(),
        "updates": updates,
        "artifact_mb": dir_bytes(op_dir) / 2**20,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
