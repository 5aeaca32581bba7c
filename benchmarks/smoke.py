#!/usr/bin/env python
"""End-to-end smoke scenarios: one harness over a table of scenarios.

Each scenario drives the real program — the ``repro`` CLI in subprocesses,
or an in-process server — and checks what an operator would see.  Every
failed expectation prints one ``<scenario> FAILURE: <what>`` line on stderr
the moment it happens and the exit code is 1; an unexpected error (server
died, connection refused, ...) is reported the same way, never as a
traceback, so a CI log leads with *what* failed.

``serving``  ``repro serve`` + 100 mixed requests + ``/v1/stats`` counters
``sparse``   a 67M-path domain served by ``repro serve`` in < 1 GiB RSS
``delta``    ``repro engine update`` patches byte-identically to a rebuild
``obs``      ``/metrics``, ``/traces`` and readiness under real traffic
``chaos``    availability and fast-fail floors under injected faults
``remote``   fleet warm-start through ``repro artifact-server``, then a
             dead-store fallback

Usage::

    python benchmarks/smoke.py SCENARIO [--quick] [--json PATH|-]

``--json`` writes the scenario's report (``-``: one line on stdout, which
``run_all.py`` parses for the sparse scenario).  ``run_all.py`` also runs
the chaos and obs scenarios in-process through :func:`run_chaos` /
:func:`chaos_failures` and :func:`run_obs` / :func:`obs_failures`, and
shares their floor constants.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: serving: total mixed requests the smoke fires (the CI contract: 100).
SERVING_REQUEST_COUNT = 100

#: sparse: the smoke graph, |L| = 20 labels at k = 6 (dense domain 67,368,420).
SPARSE_GRAPH_SPEC = dict(vertices=2000, edges=400, labels=20, skew=0.5, seed=29)
SPARSE_MAX_LENGTH = 6

#: sparse: peak-RSS ceiling for the serving process.
SPARSE_RSS_CEILING_BYTES = 1 << 30

#: delta: the scripted delta changes exactly this many edges.
DELTA_EDGES = 100
DELTA_LABEL_COUNT = 16
DELTA_LAYER_SIZE = 60
DELTA_EDGES_PER_LABEL = 400
DELTA_MAX_LENGTH = 3

#: obs: series that must have moved after the traffic phase — one per layer
#: the server instruments.  ``(metric name, labels, minimum value)``.
OBS_REQUIRED_SERIES: tuple[tuple[str, dict[str, str], float], ...] = (
    ("repro_http_requests_total", {}, 1),
    ("repro_http_request_seconds_count", {"route": "/estimate"}, 1),
    ("repro_scheduler_requests_total", {}, 1),
    ("repro_scheduler_batch_seconds_count", {}, 1),
    ("repro_registry_build_seconds_count", {"graph": "g"}, 1),
    ("repro_registry_hits_total", {}, 1),
    ("repro_build_stage_seconds_count", {"stage": "histogram"}, 1),
    ("repro_build_stage_seconds_count", {"stage": "catalog"}, 1),
    ("repro_catalog_build_seconds_count", {}, 1),
    ("repro_cache_misses_total", {"kind": "catalog"}, 1),
)

#: chaos: fraction of chaos-phase requests that must get a clean answer.
CHAOS_AVAILABILITY_FLOOR = 0.99

#: chaos: ceiling for answering a request against an open circuit.
CHAOS_FAST_FAIL_CEILING_SECONDS = 0.010

#: chaos: open-circuit probes measured for the fast-fail bound (min is reported).
CHAOS_FAST_FAIL_PROBES = 5


class _Aborted(Exception):
    """A required expectation failed; its FAILURE line is already printed."""


class Smoke:
    """One scenario run: its options, its failures and its CLI plumbing."""

    def __init__(self, name: str, args: argparse.Namespace) -> None:
        self.name = name
        self.quick = args.quick
        self.failures: list[str] = []
        self.summary = ""
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            ":" + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def check(self, condition: bool, message: str) -> bool:
        """Record and print ``message`` as a failure unless ``condition``."""
        if not condition:
            self.failures.append(message)
            print(f"{self.name} FAILURE: {message}", file=sys.stderr)
        return bool(condition)

    def require(self, condition: bool, message: str) -> None:
        """Like :meth:`check`, but a failure ends the scenario."""
        if not self.check(condition, message):
            raise _Aborted(message)

    def cli(self, *argv: str) -> subprocess.CompletedProcess:
        """Run ``python -m repro ARGV`` to completion, capturing its output."""
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=self.env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    @contextmanager
    def server(self, *argv: str, deadline_seconds: float) -> Iterator[tuple[str, subprocess.Popen]]:
        """Run ``python -m repro ARGV`` (a server) for the ``with`` block.

        Yields the base URL from the server's ``… on http://host:port``
        ready line and the process; stops it on exit (terminate, then kill).
        """
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=self.env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            yield _announced_url(process, deadline_seconds), process
        finally:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung server
                process.kill()
                process.wait(timeout=15)


def _announced_url(process: subprocess.Popen, deadline_seconds: float) -> str:
    """Parse the announced ``http://host:port`` from a server's stdout.

    A reader thread drains stdout for the server's whole life, so a chatty
    server can never block on a full pipe.
    """
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def drain() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=drain, daemon=True).start()
    deadline = time.monotonic() + deadline_seconds
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RuntimeError("server never announced its address") from None
        if line is None:
            raise RuntimeError(f"server exited early with code {process.wait()}")
        match = re.search(r" on (http://\S+)", line)
        if match:
            return match.group(1)


def _get(url: str) -> tuple[int, str, str]:
    """``(status, body, content type)`` for a GET, keeping error bodies."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                response.headers.get("Content-Type", ""),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), exc.headers.get("Content-Type", "")


def scrape_metric(text: str, name: str, **labels: str) -> float:
    """Sum every ``name`` sample in a Prometheus text document matching ``labels``."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        series, _, value = line.rpartition(" ")
        if series != name and not series.startswith(name + "{"):
            continue
        if any(f'{key}="{val}"' not in series for key, val in labels.items()):
            continue
        total += float(value)
    return total


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def smoke_serving(smoke: Smoke) -> dict[str, object]:
    """``repro serve`` end to end, through the stdlib client.

    Fires 100 mixed requests — single-path estimates, multi-path bundles,
    warm/evict management calls, plus deliberate error cases — and checks
    that the ``/v1/stats`` counters reflect the traffic (all requests
    served, coalescing active, backpressure/error accounting sane).  Also
    checks that the pre-v1 unversioned routes are gone — they answer the
    404 envelope pointing at the ``/v1`` spelling — and that non-2xx
    responses carry the uniform error envelope.
    """
    import http.client

    import numpy as np

    from repro.exceptions import ServingError
    from repro.serving import ServiceClient

    check = smoke.check
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "graph.tsv"
        generate = smoke.cli(
            "generate",
            "moreno-health",
            "--scale",
            "0.02",
            "--seed",
            "5",
            "-o",
            str(graph_path),
        )
        smoke.require(generate.returncode == 0, "could not generate the graph")
        serve = smoke.server(
            "serve",
            "--graph",
            f"moreno={graph_path}",
            "--port",
            "0",
            "-k",
            "2",
            "--buckets",
            "16",
            "--cache-dir",
            str(Path(tmp) / "cache"),
            # One worker process: the /stats checks below expect a single
            # server to have seen every request.
            "--workers",
            "1",
            deadline_seconds=30.0,
        )
        with serve as (url, _):
            client = ServiceClient(url, timeout=60.0)

            build = client.warm("moreno")
            check(build["domain_size"] > 0, "warm returned an empty domain")

            rows = client.graphs()
            check(
                rows and rows[0]["name"] == "moreno" and rows[0]["built"],
                f"unexpected /graphs rows: {rows}",
            )

            # 100 mixed requests: alternating single-path estimates, 8-path
            # bundles, the occasional management call and expected errors.
            rng = np.random.default_rng(11)
            paths = ["1", "2", "1/2", "2/1", "2/2", "1/1"]
            reference = {path: None for path in paths}
            ok_estimates = 0
            for index in range(SERVING_REQUEST_COUNT):
                kind = index % 10
                if kind == 7:
                    client.evict("moreno")
                elif kind == 8:
                    client.warm("moreno")
                elif kind == 9:
                    try:
                        client.estimate("moreno", ["99/98"])
                        check(False, "invalid path did not raise")
                    except ServingError as exc:
                        check("400" in str(exc), f"wrong error for bad path: {exc}")
                elif kind % 2 == 0:
                    path = paths[int(rng.integers(0, len(paths)))]
                    value = client.estimate("moreno", [path])[0]
                    if reference[path] is None:
                        reference[path] = value
                    check(
                        value == reference[path],
                        f"estimate for {path} changed across requests",
                    )
                    ok_estimates += 1
                else:
                    bundle = [paths[int(i)] for i in rng.integers(0, len(paths), 8)]
                    values = client.estimate("moreno", bundle)
                    check(len(values) == 8, "bundle answer has wrong arity")
                    ok_estimates += 1
            # 7 of every 10 requests are estimates (4 singles + 3 bundles).
            check(ok_estimates >= 70, f"only {ok_estimates} estimates succeeded")

            try:
                client.estimate("missing", ["1"])
                check(False, "unknown graph did not raise")
            except ServingError as exc:
                check("404" in str(exc), f"wrong error for unknown graph: {exc}")

            # Incremental update: push a small edge delta through /update and
            # make sure the swapped session keeps serving.
            update_row = client.update(
                "moreno", add=[["smoke-u", "1", "smoke-v"], ["smoke-v", "2", "smoke-u"]]
            )
            check(update_row["built"] is True, f"update did not swap: {update_row}")
            check(
                update_row.get("additions") == 2,
                f"update miscounted additions: {update_row}",
            )
            after = client.estimate("moreno", ["1", "2"])
            check(len(after) == 2, "estimates unavailable after /update")

            stats = client.stats()
            scheduler = stats["scheduler"]
            registry = stats["registry"]
            check(
                scheduler["requests_total"] >= ok_estimates,
                f"stats lost requests: {scheduler['requests_total']} < {ok_estimates}",
            )
            check(scheduler["batch_paths_total"] >= ok_estimates, "stats lost paths")
            check(scheduler["batches_total"] >= 1, "no batches recorded")
            check(scheduler["errors_total"] >= 1, "error accounting never fired")
            check(registry["builds"] >= 1, "registry recorded no builds")
            check(registry["evictions"] >= 1, "registry recorded no evictions")
            check(registry["updates"] >= 1, "registry recorded no updates")
            check(registry["sessions_resident"] >= 1, "no resident session after traffic")

            # The pre-v1 unversioned aliases are removed: they must answer
            # the 404 envelope pointing at the /v1 spelling (and nothing
            # else), so a straggler client gets an actionable error.
            host, port = url[len("http://") :].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                for method, route, body in (
                    ("GET", "/stats", None),
                    ("GET", "/graphs", None),
                    ("POST", "/estimate", json.dumps({"graph": "moreno", "paths": ["1"]})),
                ):
                    conn.request(
                        method,
                        route,
                        body=body,
                        headers={"Content-Type": "application/json"} if body else {},
                    )
                    response = conn.getresponse()
                    alias_envelope = json.loads(response.read().decode("utf-8"))
                    check(
                        response.status == 404,
                        f"removed alias {route} answered {response.status}, expected 404",
                    )
                    check(
                        f"/v1{route}" in alias_envelope.get("error", ""),
                        f"alias {route} 404 does not point at /v1{route}: {alias_envelope}",
                    )
                conn.request("GET", "/v1/definitely-not-a-route")
                response = conn.getresponse()
                envelope = json.loads(response.read().decode("utf-8"))
                check(response.status == 404, "unknown route was not a 404")
                check(
                    set(envelope) >= {"error", "code", "retry_after", "request_id"},
                    f"error envelope incomplete: {envelope}",
                )
            finally:
                conn.close()

    smoke.summary = (
        f"{scheduler['requests_total']} requests in {scheduler['batches_total']} "
        f"batches, {registry['builds']} builds, {registry['evictions']} evictions"
    )
    return {"scheduler": scheduler, "registry": registry, "ok_estimates": ok_estimates}


# ----------------------------------------------------------------------
# sparse
# ----------------------------------------------------------------------
def peak_rss_bytes(pid: int) -> Optional[int]:
    """The process's peak resident set (``VmHWM``), or ``None`` off-Linux."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def smoke_sparse(smoke: Smoke) -> dict[str, object]:
    """An on-demand-ranking session at dense-infeasible scale.

    Generates a ``|L|=20, k=6`` synthetic graph — a 67,368,420-path domain,
    ~512 MB as an ``int64`` vector before counting a position table —
    writes it to an edge list, starts the **real** ``repro serve`` CLI with
    its defaults, and drives estimates through the stdlib client.  The
    session must rank on demand (``lazy_positions`` in the ``/v1/warm``
    stats), and the server process's peak RSS (``VmHWM``) must stay under
    1 GiB: the proof that the nonzero catalog, the lazy position mode and
    the O(nnz) histograms hold end to end, not just in unit tests.
    """
    import numpy as np

    from repro.graph.generators import zipf_labeled_graph
    from repro.graph.io import write_edge_list
    from repro.paths.catalog import SelectivityCatalog
    from repro.serving import ServiceClient

    check = smoke.check
    spec = SPARSE_GRAPH_SPEC
    graph = zipf_labeled_graph(
        spec["vertices"],
        spec["edges"],
        spec["labels"],
        skew=spec["skew"],
        seed=spec["seed"],
        name="sparse-smoke",
    )
    # Reference truths from an in-process catalog: the served session must
    # agree on which paths exist at all.
    reference = SelectivityCatalog.from_graph(graph, SPARSE_MAX_LENGTH)
    nonzero = [str(path) for path in reference.nonzero_paths()[:32]]
    check(len(nonzero) >= 8, f"degenerate smoke graph: only {len(nonzero)} paths")

    result: dict[str, object] = {
        "labels": spec["labels"],
        "max_length": SPARSE_MAX_LENGTH,
        "domain_size": reference.domain_size,
        "nnz": reference.nnz,
        "density": reference.density,
        "rss_ceiling_bytes": SPARSE_RSS_CEILING_BYTES,
    }

    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "graph.tsv"
        write_edge_list(graph, graph_path)
        serve = smoke.server(
            "serve",
            "--graph",
            f"big={graph_path}",
            "--port",
            "0",
            "-k",
            str(SPARSE_MAX_LENGTH),
            "--buckets",
            "64",
            # One worker process: the RSS measurement below reads this pid's
            # VmHWM and must cover the process that built/served.
            "--workers",
            "1",
            deadline_seconds=120.0,
        )
        with serve as (url, server):
            client = ServiceClient(url, timeout=300.0)

            started = time.perf_counter()
            build = client.warm("big")
            build_seconds = time.perf_counter() - started
            check(
                build.get("domain_size") == reference.domain_size,
                f"served domain {build.get('domain_size')} != {reference.domain_size}",
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
                    rss < SPARSE_RSS_CEILING_BYTES,
                    f"server peak RSS {rss / 2**20:.0f} MiB >= 1 GiB",
                )

    result["ok"] = not smoke.failures
    rss_note = f"{rss / 2**20:.0f} MiB" if rss is not None else "n/a"
    smoke.summary = (
        f"domain {reference.domain_size:,} (nnz {reference.nnz}) served with "
        f"peak RSS {rss_note}, build {build_seconds:.1f}s"
    )
    return result


# ----------------------------------------------------------------------
# delta
# ----------------------------------------------------------------------
def smoke_delta(smoke: Smoke) -> dict[str, object]:
    """``repro engine update`` driven the way an operator would.

    1. generate a schema-structured ring graph, write it as an edge list,
       and build its catalog artifacts with ``repro engine build
       --cache-dir``;
    2. script a 100-edge delta (half removals of real edges, half
       additions), write it in the ``+|- source label target`` file
       format, and apply it with ``repro engine update`` against the same
       cache;
    3. check the patched ``catalog-<key>.npz`` artifact in the cache is
       **byte-identical** to a cold ``compute_selectivity_nonzeros`` on the
       post-delta graph, and that the update only recomputed the affected
       first-label subtrees (not the whole trie).
    """
    import numpy as np

    from repro.graph.delta import GraphDelta, write_delta
    from repro.graph.generators import ring_labeled_graph
    from repro.graph.io import read_edge_list, write_edge_list
    from repro.paths.catalog import SelectivityCatalog
    from repro.paths.enumeration import compute_selectivity_nonzeros

    check, require = smoke.check, smoke.require
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "graph.tsv"
        delta_path = Path(tmp) / "churn.delta"
        updated_path = Path(tmp) / "updated.tsv"
        cache_dir = Path(tmp) / "cache"

        graph = ring_labeled_graph(
            DELTA_LABEL_COUNT,
            DELTA_LAYER_SIZE,
            DELTA_EDGES_PER_LABEL,
            seed=7,
            name="delta-smoke",
        )
        write_edge_list(graph, graph_path)

        # The scripted 100-edge delta: removals sampled from one label's real
        # edges, additions between that label's layers.  Vertices go through
        # str() so the delta file matches the edge list's string vertices.
        rng = random.Random(11)
        label = sorted(graph.labels())[DELTA_LABEL_COUNT // 2]
        removals = [
            (str(edge.source), edge.label, str(edge.target))
            for edge in rng.sample(list(graph.edges_with_label(label)), DELTA_EDGES // 2)
        ]
        layer = [str(i) for i in range(1, DELTA_LABEL_COUNT + 1)].index(label)
        additions: set[tuple[str, str, str]] = set()
        while len(additions) < DELTA_EDGES // 2:
            source = layer * DELTA_LAYER_SIZE + rng.randrange(DELTA_LAYER_SIZE)
            target = ((layer + 1) % DELTA_LABEL_COUNT) * DELTA_LAYER_SIZE + rng.randrange(
                DELTA_LAYER_SIZE
            )
            if not graph.has_edge(source, label, target):
                additions.add((str(source), label, str(target)))
        delta = GraphDelta(additions=additions, removals=removals)
        check(len(delta) == DELTA_EDGES, f"scripted delta has {len(delta)} edges")
        write_delta(delta, delta_path)

        # 1. Cold build into the cache.
        build = smoke.cli(
            "engine",
            "build",
            str(graph_path),
            "-k",
            str(DELTA_MAX_LENGTH),
            "--cache-dir",
            str(cache_dir),
            "--json",
        )
        require(build.returncode == 0, f"engine build failed: {build.stderr.strip()}")
        build_row = json.loads(build.stdout)
        check(not build_row["catalog_from_cache"], "first build hit the cache")

        # 2. Apply the delta through the CLI.
        update = smoke.cli(
            "engine",
            "update",
            str(graph_path),
            "--delta",
            str(delta_path),
            "-k",
            str(DELTA_MAX_LENGTH),
            "--cache-dir",
            str(cache_dir),
            "-o",
            str(updated_path),
            "--json",
        )
        require(update.returncode == 0, f"engine update failed: {update.stderr.strip()}")
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
        require(patched_path.exists(), f"patched artifact missing: {patched_path.name}")
        patched = SelectivityCatalog.load_npz(patched_path)
        cold = compute_selectivity_nonzeros(read_edge_list(updated_path), DELTA_MAX_LENGTH)
        check(
            all(map(np.array_equal, patched.nonzero_arrays(), cold)),
            "patched catalog differs from a cold rebuild of the updated graph",
        )

    smoke.summary = (
        f"{DELTA_EDGES}-edge delta recomputed {row['delta_affected_subtrees']}/"
        f"{row['delta_subtrees_total']} subtrees, patched nonzeros identical to "
        f"cold rebuild ({patched.domain_size} paths)"
    )
    return row


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def run_obs(quick: bool = False) -> dict[str, object]:
    """/metrics, /traces and readiness under real traffic; the report.

    Boots an in-process ``make_server`` endpoint (cold artifact cache, one
    graph), drives mixed traffic through the retrying client — estimates,
    a warm, a deliberate 404 — then checks the observability surface from
    the *outside*, the way a scraper would:

    * ``GET /metrics`` is valid Prometheus text (``# HELP``/``# TYPE``
      pairs, content type 0.0.4) and the series named in
      :data:`OBS_REQUIRED_SERIES` all moved: HTTP layer, scheduler,
      registry build timings, per-stage session builds, catalog core and
      artifact cache — one counter per instrumented layer, so a layer
      silently losing its instruments fails the smoke even when the unit
      suite is green;
    * ``GET /traces`` retains the client's last ``X-Request-Id`` with the
      spans that crossed the scheduler thread boundary;
    * readiness tells the truth during a drain: ``/readyz`` answers 200
      before ``begin_drain()`` and 503 after, while ``/healthz``
      (liveness) stays 200 and flips its body to ``draining``.
    """
    from repro.engine import EngineConfig
    from repro.exceptions import ServiceRequestError
    from repro.graph.generators import zipf_labeled_graph
    from repro.serving import ServiceClient, SessionRegistry, make_server

    estimate_requests = 10 if quick else 30
    report: dict[str, object] = {"quick": quick}

    with tempfile.TemporaryDirectory(prefix="repro-obs-") as cache_dir:
        registry = SessionRegistry(
            cache_dir=cache_dir,
            default_config=EngineConfig(max_length=2, bucket_count=8),
        )
        registry.register("g", graph=zipf_labeled_graph(40, 160, 3, skew=1.0, seed=13, name="g"))
        server = make_server(registry, port=0, window_seconds=0.001)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(base, timeout=10, max_retries=3)
            paths = ["1/2", "2", "3/3", "2/1"]

            # Pre-drain readiness, before any build.
            status, body, _ = _get(f"{base}/readyz")
            report["readyz_ready"] = status == 200 and json.loads(body)["status"] == "ready"

            # Traffic: estimates (cold build on the first), a warm, a 404.
            for _ in range(estimate_requests):
                client.estimate("g", paths)
            traced_request_id = client.last_request_id
            client.warm("g")
            try:
                client.estimate("nope", paths)
                report["unknown_graph_rejected"] = False
            except ServiceRequestError as exc:
                report["unknown_graph_rejected"] = exc.status == 404

            # The scrape: valid exposition, every required series moved.
            status, exposition, content_type = _get(f"{base}/metrics")
            report["metrics_status"] = status
            report["metrics_content_type_ok"] = content_type.startswith(
                "text/plain"
            ) and "version=0.0.4" in content_type
            lines = exposition.splitlines()
            helps = sum(line.startswith("# HELP ") for line in lines)
            types = sum(line.startswith("# TYPE ") for line in lines)
            report["metrics_help_type_pairs"] = helps == types and helps > 0
            missing = [
                f"{name}{labels or ''} = {scrape_metric(exposition, name, **labels)}"
                f" (need >= {minimum})"
                for name, labels, minimum in OBS_REQUIRED_SERIES
                if scrape_metric(exposition, name, **labels) < minimum
            ]
            report["metrics_missing_series"] = missing
            report["http_requests_total"] = scrape_metric(exposition, "repro_http_requests_total")
            report["scheduler_requests_total"] = scrape_metric(
                exposition, "repro_scheduler_requests_total"
            )
            report["estimate_404_counted"] = (
                scrape_metric(
                    exposition,
                    "repro_http_requests_total",
                    route="/estimate",
                    status="404",
                )
                >= 1
            )
            report["sessions_resident_gauge"] = scrape_metric(
                exposition, "repro_registry_sessions_resident"
            )

            # The trace store retains the client's request id with spans
            # from across the scheduler thread boundary.
            status, body, _ = _get(f"{base}/traces")
            rows = json.loads(body)["recent"] + json.loads(body)["slowest"]
            row = next((r for r in rows if r["request_id"] == traced_request_id), None)
            report["trace_found"] = row is not None
            span_names = {span["name"] for span in row["spans"]} if row else set()
            report["trace_crosses_scheduler"] = "scheduler.estimate_batch" in span_names

            # The drain window: readiness flips, liveness does not.
            server.begin_drain()
            status, body, _ = _get(f"{base}/healthz")
            document = json.loads(body)
            report["healthz_draining"] = status == 200 and document["status"] == "draining"
            status, body, _ = _get(f"{base}/readyz")
            report["readyz_unready_after_drain"] = (
                status == 503 and json.loads(body)["status"] == "unready"
            )
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=15)
    return report


def obs_failures(report: dict[str, object]) -> list[str]:
    """Every observability expectation the report violates, one line each."""
    failures: list[str] = []
    expectations = (
        ("readyz_ready", "/readyz did not answer ready before the drain"),
        ("unknown_graph_rejected", "an unknown graph was not rejected with 404"),
        ("metrics_content_type_ok", "/metrics content type is not text 0.0.4"),
        ("metrics_help_type_pairs", "/metrics HELP/TYPE headers are unpaired"),
        ("estimate_404_counted", "the 404 was not counted by route/status"),
        ("trace_found", "the client's X-Request-Id is not in /traces"),
        ("trace_crosses_scheduler", "the retained trace has no scheduler-side spans"),
        ("healthz_draining", "/healthz did not report the drain (or went down)"),
        ("readyz_unready_after_drain", "/readyz stayed ready during the drain"),
    )
    for key, message in expectations:
        if not report.get(key, False):
            failures.append(message)
    if report.get("metrics_status") != 200:
        failures.append(f"/metrics answered {report.get('metrics_status')}")
    for line in report.get("metrics_missing_series", []):
        failures.append(f"/metrics series did not move: {line}")
    if report.get("sessions_resident_gauge", 0) < 1:
        failures.append("the resident-sessions gauge reads 0 with a built session")
    return failures


def smoke_obs(smoke: Smoke) -> dict[str, object]:
    """The obs scenario (:func:`run_obs`) judged by :func:`obs_failures`."""
    report = run_obs(quick=smoke.quick)
    for failure in obs_failures(report):
        smoke.check(False, failure)
    smoke.summary = (
        f"{report['http_requests_total']:.0f} HTTP requests scraped, "
        f"{report['scheduler_requests_total']:.0f} through the scheduler, "
        f"trace retained: {report['trace_found']}, readiness flipped on "
        f"drain: {report['readyz_unready_after_drain']}"
    )
    return report


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
class _Outcomes:
    """Thread-safe request classification counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ok = 0
        self.clean_unavailable = 0
        self.clean_rejected = 0
        self.bad = 0

    def record(self, call) -> object:
        """Run ``call``, classify its outcome, and return its result (or None)."""
        from repro.exceptions import ServiceRequestError

        try:
            result = call()
        except ServiceRequestError as exc:
            with self._lock:
                if exc.status in (429, 503) and exc.retry_after is not None:
                    self.clean_unavailable += 1
                elif exc.status == 504:
                    self.clean_unavailable += 1
                elif exc.status is not None and 400 <= exc.status < 500:
                    self.clean_rejected += 1
                else:
                    self.bad += 1
            return None
        except Exception:  # noqa: BLE001 - anything else is a dirty failure
            with self._lock:
                self.bad += 1
            return None
        with self._lock:
            self.ok += 1
        return result

    @property
    def total(self) -> int:
        with self._lock:
            return self.ok + self.clean_unavailable + self.clean_rejected + self.bad

    def availability(self) -> float:
        """Fraction of requests that got a clean (non-``bad``) answer."""
        total = self.total
        if total == 0:
            return 1.0
        with self._lock:
            return 1.0 - self.bad / total


def run_chaos(quick: bool = False) -> dict[str, object]:
    """Availability of the serving stack under injected faults; the report.

    Runs one in-process ``make_server`` endpoint through the fault phases
    driven by :mod:`repro.testing.faults`:

    1. **baseline** — plain traffic through a retrying client;
    2. **worker crash** — the scheduler's drain loop is killed mid-batch;
       the supervisor must fail the in-flight futures, restart the worker,
       and the client's retry must land;
    3. **corrupt artifact** — the cached catalog ``.npz`` is
       deterministically damaged on disk; the next build must quarantine it
       and rebuild with no client-visible error;
    4. **circuit breaker** — a doomed graph (every build fails after a
       250 ms stall) trips its circuit; once open, requests must fast-fail
       in under :data:`CHAOS_FAST_FAIL_CEILING_SECONDS` instead of queueing
       behind the stall;
    5. **backpressure burst** — more concurrent clients than the 8-deep
       queue admits; retries with jitter + ``Retry-After`` must absorb the
       burst;
    6. **remote artifact tier** — a live ``make_artifact_server`` store
       first bit-flips every payload in flight (the fetch must quarantine
       the damage and the build degrade to a cold start), then dies
       entirely (the :class:`~repro.engine.remote.RemoteArtifactStore`
       breaker must open and fast-fail under the same ceiling as the
       registry circuit, with no ``.tmp`` debris left in any cache).

    Every request is classified: ``ok`` (answered), ``clean_unavailable``
    (429/503 carrying a retry hint, or 504), ``clean_rejected`` (4xx client
    fault), or ``bad`` (anything else — including a 503 *without* a retry
    hint).  Availability = non-``bad`` / total and must clear
    :data:`CHAOS_AVAILABILITY_FLOOR`; a thread that never returns counts as
    a hang and any hang fails the run.

    A final phase scrapes ``GET /metrics`` and checks the exported series
    *tell the truth about the faults just injected*: the breaker-open
    transition, the quarantine counter and the worker-restart counter must
    all be visible to an external scraper, not just to in-process state.
    """
    from repro.engine import ArtifactCache, EngineConfig, EstimationSession
    from repro.engine.remote import RemoteArtifactStore
    from repro.exceptions import EngineError, ServiceRequestError
    from repro.graph.generators import zipf_labeled_graph
    from repro.obs.metrics import MetricsRegistry
    from repro.serving import ServiceClient, SessionRegistry, make_server
    from repro.serving.artifacts import make_artifact_server
    from repro.testing import bitflip_bytes, corrupt_file, injector

    baseline_requests = 20 if quick else 40
    burst_threads = 24 if quick else 60

    injector.reset()
    outcomes = _Outcomes()
    report: dict[str, object] = {
        "quick": quick,
        "availability_floor": CHAOS_AVAILABILITY_FLOOR,
        "fast_fail_ceiling_seconds": CHAOS_FAST_FAIL_CEILING_SECONDS,
    }

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as cache_dir:
        registry = SessionRegistry(
            cache_dir=cache_dir,
            default_config=EngineConfig(max_length=2, bucket_count=8),
            breaker_threshold=2,
            breaker_reset_seconds=60.0,
        )
        registry.register("g", graph=zipf_labeled_graph(40, 160, 3, skew=1.0, seed=13, name="g"))
        registry.register(
            "doomed",
            graph=zipf_labeled_graph(20, 50, 3, skew=1.0, seed=17, name="doomed"),
        )
        injector.arm(
            "registry.build",
            error=lambda: EngineError("chaos: doomed build"),
            delay=0.25,
            times=-1,
            match=lambda ctx: ctx.get("graph") == "doomed",
        )
        server = make_server(registry, port=0, window_seconds=0.001, max_pending=8)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url, timeout=10, max_retries=6, backoff_seconds=0.02)
            paths = ["1/2", "2", "3/3", "2/1"]

            # Phase 1: baseline traffic.
            reference = outcomes.record(lambda: client.estimate("g", paths))
            assert reference is not None, "baseline estimate failed"
            for _ in range(baseline_requests - 1):
                outcomes.record(lambda: client.estimate("g", paths))

            # Phase 2: worker crash mid-batch; the retry must recover.
            injector.arm("scheduler.worker", error=RuntimeError("chaos"), times=1)
            crashed_answer = outcomes.record(lambda: client.estimate("g", paths))
            stats = client.stats()["scheduler"]
            report["worker_restarts"] = stats["worker_restarts"]
            report["crashed_requests_total"] = stats["crashed_requests_total"]
            report["recovered_after_crash"] = (
                crashed_answer == reference and stats["worker_restarts"] >= 1
            )

            # Phase 3: corrupt the cached catalog; rebuild must be invisible.
            key = registry.get("g").stats.catalog_key
            registry.evict("g")
            corrupt_file(registry.cache.catalog_path(key), mode="bitflip")
            healed_answer = outcomes.record(lambda: client.estimate("g", paths))
            report["quarantined"] = registry.cache.quarantined
            report["quarantine_rebuilt"] = (
                healed_answer == reference and registry.cache.quarantined >= 1
            )

            # Phase 4: trip the doomed graph's circuit, then time fast-fails.
            no_retry = ServiceClient(url, timeout=10, max_retries=0)
            for _ in range(2):  # breaker_threshold slow failures (400s)
                outcomes.record(lambda: no_retry.warm("doomed"))
            fast_fail_seconds = []
            for _ in range(CHAOS_FAST_FAIL_PROBES):
                started = time.perf_counter()
                try:
                    no_retry.warm("doomed")
                    raise AssertionError("open circuit answered a warm")
                except ServiceRequestError as exc:
                    elapsed = time.perf_counter() - started
                    with outcomes._lock:
                        if exc.status == 503 and exc.retry_after is not None:
                            outcomes.clean_unavailable += 1
                        else:
                            outcomes.bad += 1
                fast_fail_seconds.append(elapsed)
            report["circuit_fast_fail_seconds"] = min(fast_fail_seconds)
            report["circuits_opened"] = registry.stats.circuits_opened

            # Phase 5: backpressure burst against the 8-deep queue.
            injector.arm("scheduler.worker", delay=0.15, times=1)
            burst_clients = [
                ServiceClient(
                    url,
                    timeout=10,
                    max_retries=8,
                    backoff_seconds=0.02,
                    backoff_max_seconds=0.5,
                )
                for _ in range(burst_threads)
            ]
            threads = [
                threading.Thread(
                    target=lambda c=c: outcomes.record(lambda: c.estimate("g", paths)),
                    daemon=True,
                )
                for c in burst_clients
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=60)
            report["hangs"] = sum(worker.is_alive() for worker in threads)

            # Phase 6: remote artifact tier under chaos.  A store that
            # corrupts every payload in flight must end in quarantine
            # (the damage is never loaded) with the build degrading to
            # cold; a dead store must trip the client's circuit breaker
            # and then fast-fail instead of stalling builds.
            remote_root = Path(cache_dir)
            artifact_server = make_artifact_server(
                remote_root / "remote-store", port=0, metrics=MetricsRegistry()
            )
            remote_host, remote_port = artifact_server.server_address[:2]
            remote_url = f"http://{remote_host}:{remote_port}"
            artifact_thread = threading.Thread(target=artifact_server.serve_forever, daemon=True)
            artifact_thread.start()
            remote_graph = zipf_labeled_graph(30, 120, 3, skew=1.0, seed=23, name="remote-g")
            remote_config = EngineConfig(max_length=2, bucket_count=8)
            try:
                seed_cache = ArtifactCache(
                    remote_root / "remote-seed",
                    remote=RemoteArtifactStore(remote_url),
                )
                outcomes.record(
                    lambda: EstimationSession.build(
                        remote_graph, remote_config, cache_dir=seed_cache
                    )
                )
                seed_cache.remote.flush(timeout=30)
                corrupting = injector.arm("remote.fetch", mutate=bitflip_bytes, times=-1)
                try:
                    chaos_cache = ArtifactCache(
                        remote_root / "remote-chaos",
                        remote=RemoteArtifactStore(remote_url),
                    )
                    rebuilt = outcomes.record(
                        lambda: EstimationSession.build(
                            remote_graph, remote_config, cache_dir=chaos_cache
                        )
                    )
                finally:
                    injector.disarm(corrupting)
                report["remote_quarantined"] = chaos_cache.quarantined
                report["remote_corrupt_rebuilt"] = (
                    rebuilt is not None
                    and not rebuilt.stats.catalog_from_cache
                    and chaos_cache.quarantined >= 1
                )
            finally:
                artifact_server.shutdown()
                artifact_server.server_close()
                artifact_thread.join(timeout=15)

            # The store is now dead: the build degrades to cold and the
            # breaker opens, after which fetches fast-fail.
            dead_store = RemoteArtifactStore(
                remote_url, timeout=1.0, max_retries=1, backoff_seconds=0.0
            )
            dead_cache = ArtifactCache(remote_root / "remote-dead", remote=dead_store)
            degraded = outcomes.record(
                lambda: EstimationSession.build(
                    remote_graph, remote_config, cache_dir=dead_cache
                )
            )
            report["remote_outage_degraded"] = (
                degraded is not None and not degraded.stats.catalog_from_cache
            )
            probes = 0
            sink = remote_root / "remote-dead" / "catalog-probe.npz"
            while not dead_store.breaker_open and probes < 10:
                dead_store.fetch("catalog-probe.npz", sink)
                probes += 1
            report["remote_breaker_opened"] = dead_store.breaker_open
            remote_fast_fails = []
            for _ in range(CHAOS_FAST_FAIL_PROBES):
                started = time.perf_counter()
                dead_store.fetch("catalog-probe.npz", sink)
                remote_fast_fails.append(time.perf_counter() - started)
            report["remote_fast_fail_seconds"] = min(remote_fast_fails)
            report["remote_tmp_debris"] = sum(
                len(cache.temp_files()) for cache in (seed_cache, chaos_cache, dead_cache)
            )

            # Phase 7: the metrics must tell the truth about the faults.
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
                exposition = response.read().decode("utf-8")
            report["metrics_breaker_open_transitions"] = scrape_metric(
                exposition,
                "repro_registry_circuit_transitions_total",
                graph="doomed",
                state="open",
            )
            report["metrics_quarantined_total"] = scrape_metric(
                exposition, "repro_cache_quarantined_total"
            )
            report["metrics_worker_restarts_total"] = scrape_metric(
                exposition, "repro_scheduler_worker_restarts_total"
            )
            report["metrics_remote_corrupt_total"] = scrape_metric(
                exposition, "repro_remote_fetch_total", outcome="corrupt"
            )
            report["metrics_remote_breaker_open_transitions"] = scrape_metric(
                exposition, "repro_remote_breaker_transitions_total", state="open"
            )
        finally:
            injector.reset()
            server.shutdown()
            server.close()
            thread.join(timeout=15)

    report.update(
        {
            "requests_total": outcomes.total,
            "ok": outcomes.ok,
            "clean_unavailable": outcomes.clean_unavailable,
            "clean_rejected": outcomes.clean_rejected,
            "bad": outcomes.bad,
            "availability": outcomes.availability(),
        }
    )
    return report


def chaos_failures(report: dict[str, object]) -> list[str]:
    """Every chaos floor the report violates, one readable line each."""
    failures: list[str] = []
    floor = report.get("availability_floor", CHAOS_AVAILABILITY_FLOOR)
    if report["availability"] < floor:
        failures.append(
            f"chaos availability {report['availability']:.4f} < {floor} "
            f"({report['bad']} dirty failures of {report['requests_total']})"
        )
    if report.get("hangs", 0):
        failures.append(f"{report['hangs']} request thread(s) never returned")
    if not report.get("recovered_after_crash", False):
        failures.append("client retry did not recover across the worker crash")
    if not report.get("quarantine_rebuilt", False):
        failures.append("corrupt catalog was not quarantined + rebuilt cleanly")
    ceiling = report.get("fast_fail_ceiling_seconds", CHAOS_FAST_FAIL_CEILING_SECONDS)
    if report["circuit_fast_fail_seconds"] >= ceiling:
        failures.append(
            f"open circuit answered in {report['circuit_fast_fail_seconds'] * 1000:.1f}ms "
            f">= {ceiling * 1000:.0f}ms ceiling"
        )
    if report.get("circuits_opened", 0) < 1:
        failures.append("the doomed graph never tripped its circuit")
    if not report.get("remote_corrupt_rebuilt", False):
        failures.append("corrupting remote store was not quarantined + rebuilt cleanly")
    if not report.get("remote_outage_degraded", False):
        failures.append("dead remote store did not degrade to a cold build")
    if not report.get("remote_breaker_opened", False):
        failures.append("the dead remote store never tripped its breaker")
    if report.get("remote_fast_fail_seconds", 0.0) >= ceiling:
        failures.append(
            f"open remote breaker answered in "
            f"{report['remote_fast_fail_seconds'] * 1000:.1f}ms "
            f">= {ceiling * 1000:.0f}ms ceiling"
        )
    if report.get("remote_tmp_debris", 0):
        failures.append(
            f"{report['remote_tmp_debris']} .tmp debris file(s) in remote-backed caches"
        )
    for key, label in (
        ("metrics_breaker_open_transitions", "breaker-open transition"),
        ("metrics_quarantined_total", "artifact quarantine"),
        ("metrics_worker_restarts_total", "worker restart"),
        ("metrics_remote_corrupt_total", "remote corrupt-fetch counter"),
        ("metrics_remote_breaker_open_transitions", "remote breaker-open"),
    ):
        if report.get(key, 0) < 1:
            failures.append(f"/metrics did not expose the {label} counter (>= 1)")
    return failures


def smoke_chaos(smoke: Smoke) -> dict[str, object]:
    """The chaos scenario (:func:`run_chaos`) judged by :func:`chaos_failures`."""
    report = run_chaos(quick=smoke.quick)
    for failure in chaos_failures(report):
        smoke.check(False, failure)
    smoke.summary = (
        f"availability {report['availability']:.4f} over "
        f"{report['requests_total']} requests "
        f"(ok {report['ok']}, unavailable {report['clean_unavailable']}, "
        f"rejected {report['clean_rejected']}, bad {report['bad']}, "
        f"hangs {report['hangs']}), worker restarts {report['worker_restarts']}, "
        f"quarantined {report['quarantined']}, circuit fast-fail "
        f"{report['circuit_fast_fail_seconds'] * 1000:.2f}ms, remote "
        f"quarantined {report['remote_quarantined']}, remote breaker fast-fail "
        f"{report['remote_fast_fail_seconds'] * 1000:.2f}ms"
    )
    return report


# ----------------------------------------------------------------------
# remote
# ----------------------------------------------------------------------
def smoke_remote(smoke: Smoke) -> dict[str, object]:
    """The fleet warm-start loop through the real CLI, process boundaries included.

    1. ``repro artifact-server`` starts as a subprocess on an ephemeral
       port (the bound address is parsed from its stdout);
    2. a cold ``repro engine build --cache-dir A --remote-cache URL``
       builds from scratch and pushes the catalog/histogram/positions trio;
    3. a second build with a **fresh** cache directory warm-starts
       entirely from the store (``catalog_from_cache`` in its ``--json``
       stats);
    4. ``repro engine cache list --remote`` audits presence: every pushed
       primary must show ``both``;
    5. fault phase — the server is killed and the build is rerun against
       yet another fresh cache: it must degrade to a cold build with exit
       0, and no ``.tmp`` debris may remain in any cache directory.
    """
    check = smoke.check
    cli = smoke.cli
    with tempfile.TemporaryDirectory(prefix="repro-remote-smoke-") as tmp:
        root = Path(tmp)
        graph_path = root / "graph.tsv"
        generated = cli(
            "generate",
            "moreno-health",
            "--scale",
            "0.05",
            "--seed",
            "5",
            "-o",
            str(graph_path),
        )
        smoke.require(generated.returncode == 0, "could not generate the graph")

        store = smoke.server(
            "artifact-server",
            "--dir",
            str(root / "store"),
            "--port",
            "0",
            deadline_seconds=30.0,
        )
        with store as (url, _):
            # Phase 1: cold build pushes to the store.
            cold = cli(
                "engine",
                "build",
                str(graph_path),
                "-k",
                "3",
                "--cache-dir",
                str(root / "cacheA"),
                "--remote-cache",
                url,
                "--json",
            )
            check(cold.returncode == 0, f"cold build failed: {cold.stderr.strip()}")
            cold_stats = json.loads(cold.stdout)
            check(cold_stats["catalog_from_cache"] is False, "first build was unexpectedly warm")
            deadline = time.perf_counter() + 30
            while len(list((root / "store").iterdir())) < 3 and time.perf_counter() < deadline:
                time.sleep(0.1)
            stored = sorted(path.name for path in (root / "store").iterdir())
            check(
                len(stored) >= 3,
                f"cold build pushed {len(stored)} artifacts, expected >= 3: {stored}",
            )

            # Phase 2: a fresh cache warm-starts from the store.
            warm = cli(
                "engine",
                "build",
                str(graph_path),
                "-k",
                "3",
                "--cache-dir",
                str(root / "cacheB"),
                "--remote-cache",
                url,
                "--json",
            )
            check(warm.returncode == 0, f"warm build failed: {warm.stderr.strip()}")
            warm_stats = json.loads(warm.stdout)
            check(
                warm_stats["catalog_from_cache"] is True,
                "second process did not warm-start from the remote store",
            )

            # Phase 3: the presence audit sees every primary on both tiers.
            audit = cli(
                "engine",
                "cache",
                "list",
                "--cache-dir",
                str(root / "cacheB"),
                "--remote",
                url,
                "--json",
            )
            check(audit.returncode == 0, f"cache audit failed: {audit.stderr.strip()}")
            document = json.loads(audit.stdout)
            presence = {row["file"]: row["presence"] for row in document["files"]}
            primaries = [
                name
                for name in presence
                if name.endswith((".npz", ".json"))
                or (name.startswith("positions-") and name.endswith(".npy"))
            ]
            check(bool(primaries), f"audit saw no primary artifacts: {presence}")
            wrong = {name: presence[name] for name in primaries if presence[name] != "both"}
            check(not wrong, f"primaries not present on both tiers: {wrong}")

        # Phase 4: the store is gone; the build must degrade to cold.
        degraded = cli(
            "engine",
            "build",
            str(graph_path),
            "-k",
            "3",
            "--cache-dir",
            str(root / "cacheC"),
            "--remote-cache",
            url,
            "--json",
        )
        check(
            degraded.returncode == 0,
            f"build with a dead store failed: {degraded.stderr.strip()}",
        )
        if degraded.returncode == 0:
            degraded_stats = json.loads(degraded.stdout)
            check(
                degraded_stats["catalog_from_cache"] is False,
                "dead-store build claimed a warm start",
            )
            check(degraded_stats["domain_size"] > 0, "dead-store build produced an empty domain")

        # No half-written files anywhere, in caches or the store directory.
        debris = [
            str(path)
            for name in ("cacheA", "cacheB", "cacheC", "store")
            if (root / name).exists()
            for path in (root / name).glob(".*.tmp*")
        ]
        check(not debris, f".tmp debris left behind: {debris}")

    smoke.summary = (
        "cold build pushed, fresh process warm-started, presence audit clean, "
        "dead-store build degraded cold, no debris"
    )
    return {"stored": stored, "primaries": primaries}


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One table row: the function that drives and checks the scenario."""

    run: Callable[[Smoke], dict[str, object]]
    help: str


SCENARIOS: dict[str, Scenario] = {
    "serving": Scenario(smoke_serving, "repro serve + 100 mixed requests"),
    "sparse": Scenario(smoke_sparse, "67M-path domain served in < 1 GiB RSS"),
    "delta": Scenario(smoke_delta, "repro engine update vs a cold rebuild"),
    "obs": Scenario(smoke_obs, "/metrics, /traces and readiness"),
    "chaos": Scenario(smoke_chaos, "fault injection, >= 99% availability"),
    "remote": Scenario(smoke_remote, "fleet warm-start, dead-store fallback"),
}


def main(argv: Optional[list[str]] = None) -> int:
    """Run one scenario; exit 1 on any failed expectation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="; ".join(f"{name}: {row.help}" for name, row in SCENARIOS.items()),
    )
    parser.add_argument("--quick", action="store_true", help="fewer requests (CI mode)")
    parser.add_argument("--json", default=None, help="write the report to this path ('-': stdout)")
    args = parser.parse_args(argv)
    smoke = Smoke(args.scenario, args)
    report: dict[str, object] = {}
    try:
        report = SCENARIOS[args.scenario].run(smoke)
    except _Aborted:
        pass
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        smoke.check(False, f"{type(exc).__name__}: {exc}")
    if smoke.summary:
        verdict = "failed" if smoke.failures else "ok"
        print(f"{args.scenario} {verdict}: {smoke.summary}")
    if args.json == "-":
        print(json.dumps(report))
    elif args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 1 if smoke.failures else 0


if __name__ == "__main__":
    sys.exit(main())
