#!/usr/bin/env python
"""End-to-end smoke of an on-demand-ranking session at dense-infeasible scale.

Generates a ``|L|=20, k=6`` synthetic graph — a 67,368,420-path domain,
~512 MB as an ``int64`` vector before counting a position table — writes
it to an edge list, starts the **real** ``repro serve`` CLI with its
defaults, and drives estimates through the stdlib client.  The session
must rank on demand (``lazy_positions`` in the ``/v1/warm`` stats), and
the server process's peak RSS (``VmHWM``) must stay under 1 GiB: the proof
that the nonzero catalog, the lazy position mode and the O(nnz) histograms
hold end to end, not just in unit tests.

Run directly (CI job) or with ``--json`` (consumed by ``run_all.py``, which
records the numbers in ``BENCH_engine.json`` and enforces the RSS floor).

Usage::

    python benchmarks/sparse_smoke.py [--port 18791] [--json]
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

REPO_ROOT = Path(__file__).resolve().parent.parent

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: The smoke graph: |L| = 20 labels at k = 6 (dense domain 67,368,420).
GRAPH_SPEC = dict(vertices=2000, edges=400, labels=20, skew=0.5, seed=29)
MAX_LENGTH = 6

#: Peak-RSS ceiling for the serving process (the ISSUE acceptance bound).
RSS_CEILING_BYTES = 1 << 30


def peak_rss_bytes(pid: int) -> int | None:
    """The process's peak resident set (``VmHWM``), or ``None`` off-Linux."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def wait_for_server(client, deadline_seconds: float = 120.0) -> None:
    from repro.exceptions import ServingError

    deadline = time.perf_counter() + deadline_seconds
    while True:
        try:
            client.healthz()
            return
        except ServingError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=18791)
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON result document"
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        print(f"sparse smoke FAILURE: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.graph.generators import zipf_labeled_graph
    from repro.graph.io import write_edge_list
    from repro.paths.catalog import SelectivityCatalog
    from repro.serving import ServiceClient

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
            print(f"sparse smoke FAILURE: {message}", file=sys.stderr)

    graph = zipf_labeled_graph(
        GRAPH_SPEC["vertices"],
        GRAPH_SPEC["edges"],
        GRAPH_SPEC["labels"],
        skew=GRAPH_SPEC["skew"],
        seed=GRAPH_SPEC["seed"],
        name="sparse-smoke",
    )
    # Reference truths from an in-process catalog: the served session must
    # agree on which paths exist at all.
    reference = SelectivityCatalog.from_graph(graph, MAX_LENGTH)
    nonzero = [str(path) for path in reference.nonzero_paths()[:32]]
    check(len(nonzero) >= 8, f"degenerate smoke graph: only {len(nonzero)} paths")

    result: dict[str, object] = {
        "labels": GRAPH_SPEC["labels"],
        "max_length": MAX_LENGTH,
        "domain_size": reference.domain_size,
        "nnz": reference.nnz,
        "density": reference.density,
        "rss_ceiling_bytes": RSS_CEILING_BYTES,
    }

    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "graph.tsv"
        write_edge_list(graph, graph_path)

        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--graph",
                f"big={graph_path}",
                "--port",
                str(args.port),
                "-k",
                str(MAX_LENGTH),
                "--buckets",
                "64",
                # One worker process: the RSS measurement below reads this
                # pid's VmHWM and must cover the process that built/served.
                "--workers",
                "1",
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{args.port}", timeout=300.0)
            wait_for_server(client)

            started = time.perf_counter()
            build = client.warm("big")
            build_seconds = time.perf_counter() - started
            check(
                build.get("domain_size") == reference.domain_size,
                f"served domain {build.get('domain_size')} != "
                f"{reference.domain_size}",
            )
            check(
                build.get("lazy_positions") is True,
                f"server built a position table instead of ranking on demand: {build}",
            )

            rows = client.graphs()
            memory_bytes = rows[0].get("memory_bytes") if rows else None

            estimates = client.estimate("big", nonzero)
            check(len(estimates) == len(nonzero), "estimate arity mismatch")
            check(
                bool(np.all(np.asarray(estimates) >= 0.0)),
                "negative estimates served",
            )

            rss = peak_rss_bytes(server.pid)
            result.update(
                {
                    "build_seconds": build_seconds,
                    "session_memory_bytes": memory_bytes,
                    "max_rss_bytes": rss,
                    "estimated_paths": len(nonzero),
                }
            )
            if rss is not None:
                check(
                    rss < RSS_CEILING_BYTES,
                    f"server peak RSS {rss / 2**20:.0f} MiB >= 1 GiB",
                )
            if not failures and not args.json:
                rss_note = f"{rss / 2**20:.0f} MiB" if rss is not None else "n/a"
                print(
                    f"sparse smoke ok: domain {reference.domain_size:,} "
                    f"(nnz {reference.nnz}) served with peak RSS {rss_note}, "
                    f"build {build_seconds:.1f}s"
                )
        finally:
            server.terminate()
            try:
                server.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                server.kill()

    result["ok"] = not failures
    if args.json:
        print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
