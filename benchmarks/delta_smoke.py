#!/usr/bin/env python
"""End-to-end smoke test of ``repro engine update`` (the CI delta job).

Drives the incremental-update pipeline exactly the way an operator would:

1. generate a schema-structured ring graph, write it as an edge list, and
   build its catalog artifacts with ``repro engine build --cache-dir``;
2. script a 100-edge delta (half removals of real edges, half additions),
   write it in the ``+|- source label target`` file format, and apply it
   with ``repro engine update`` against the same cache;
3. assert the patched ``catalog-<key>.npz`` artifact in the cache is
   **byte-identical** to a cold ``compute_selectivity_nonzeros`` on the
   post-delta graph, and that the update only recomputed the affected
   first-label subtrees (not the whole trie).

Failures print as one readable ``delta-smoke FAILURE: ...`` line each and
exit non-zero; no tracebacks for expected failure modes.

Usage::

    python benchmarks/delta_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: The CI contract: the scripted delta changes exactly this many edges.
DELTA_EDGES = 100

LABEL_COUNT = 16
LAYER_SIZE = 60
EDGES_PER_LABEL = 400
MAX_LENGTH = 3


def main(argv: list[str] | None = None) -> int:
    try:
        return _run()
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        print(f"delta-smoke FAILURE: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run() -> int:
    import numpy as np

    from repro.graph.delta import GraphDelta, write_delta
    from repro.graph.generators import ring_labeled_graph
    from repro.graph.io import read_edge_list, write_edge_list
    from repro.paths.catalog import SelectivityCatalog
    from repro.paths.enumeration import compute_selectivity_nonzeros

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
            print(f"delta-smoke FAILURE: {message}", file=sys.stderr)

    def run_cli(*arguments: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "graph.tsv"
        delta_path = Path(tmp) / "churn.delta"
        updated_path = Path(tmp) / "updated.tsv"
        cache_dir = Path(tmp) / "cache"

        graph = ring_labeled_graph(
            LABEL_COUNT, LAYER_SIZE, EDGES_PER_LABEL, seed=7, name="delta-smoke"
        )
        write_edge_list(graph, graph_path)

        # The scripted 100-edge delta: removals sampled from one label's real
        # edges, additions between that label's layers.  Vertices go through
        # str() so the delta file matches the edge list's string vertices.
        rng = random.Random(11)
        label = sorted(graph.labels())[LABEL_COUNT // 2]
        removals = [
            (str(edge.source), edge.label, str(edge.target))
            for edge in rng.sample(
                list(graph.edges_with_label(label)), DELTA_EDGES // 2
            )
        ]
        layer = [str(i) for i in range(1, LABEL_COUNT + 1)].index(label)
        additions: set[tuple[str, str, str]] = set()
        while len(additions) < DELTA_EDGES // 2:
            source = layer * LAYER_SIZE + rng.randrange(LAYER_SIZE)
            target = ((layer + 1) % LABEL_COUNT) * LAYER_SIZE + rng.randrange(
                LAYER_SIZE
            )
            if not graph.has_edge(source, label, target):
                additions.add((str(source), label, str(target)))
        delta = GraphDelta(additions=additions, removals=removals)
        check(len(delta) == DELTA_EDGES, f"scripted delta has {len(delta)} edges")
        write_delta(delta, delta_path)

        # 1. Cold build into the cache.
        build = run_cli(
            "engine", "build", str(graph_path), "-k", str(MAX_LENGTH),
            "--cache-dir", str(cache_dir), "--json",
        )
        check(build.returncode == 0, f"engine build failed: {build.stderr.strip()}")
        if build.returncode != 0:
            return 1
        build_row = json.loads(build.stdout)
        check(not build_row["catalog_from_cache"], "first build hit the cache")

        # 2. Apply the delta through the CLI.
        update = run_cli(
            "engine", "update", str(graph_path), "--delta", str(delta_path),
            "-k", str(MAX_LENGTH), "--cache-dir", str(cache_dir),
            "-o", str(updated_path), "--json",
        )
        check(update.returncode == 0, f"engine update failed: {update.stderr.strip()}")
        if update.returncode != 0:
            return 1
        row = json.loads(update.stdout)
        check(row["updated_from_delta"] is True, "update row not marked as delta")
        check(
            row["delta_additions"] == DELTA_EDGES // 2
            and row["delta_removals"] == DELTA_EDGES // 2,
            f"update applied +{row['delta_additions']}/-{row['delta_removals']}",
        )
        check(
            0 < row["delta_affected_subtrees"] < row["delta_subtrees_total"],
            f"delta touched {row['delta_affected_subtrees']}/"
            f"{row['delta_subtrees_total']} subtrees (expected a strict subset)",
        )
        check(not row["delta_full_rebuild"], "update fell back to a full rebuild")

        # 3. The patched artifact must equal a cold rebuild byte for byte.
        patched_path = cache_dir / f"catalog-{row['catalog_key']}.npz"
        check(patched_path.exists(), f"patched artifact missing: {patched_path.name}")
        if not patched_path.exists():
            return 1
        patched = SelectivityCatalog.load_npz(patched_path)
        cold = compute_selectivity_nonzeros(read_edge_list(updated_path), MAX_LENGTH)
        check(
            all(map(np.array_equal, patched.nonzero_arrays(), cold)),
            "patched catalog differs from a cold rebuild of the updated graph",
        )

        if not failures:
            print(
                f"delta-smoke ok: {DELTA_EDGES}-edge delta recomputed "
                f"{row['delta_affected_subtrees']}/{row['delta_subtrees_total']} "
                f"subtrees, patched nonzeros identical to cold rebuild "
                f"({patched.domain_size} paths)"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
