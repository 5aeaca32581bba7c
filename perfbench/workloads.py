"""The four workloads: what each one runs, checks and reports.

Every workload has the same phases, so every end-to-end metric exists on
every workload:

1. preparation (untimed): generate the graph, write it as an edge list,
   build the reference session from that file, draw and pre-encode the
   request bodies and the probe set;
2. set-up, ``SETUPS`` times: spawn the process doing the work and wait for
   its first answer (``setup_s`` is the median);
3. warm-up (untimed), then the timed phase of ``--seconds``;
4. checks: every distinct served (path, estimate) pair and the probe set
   against the reference, float64-equal.

On serve-* the timed phase is a row of equal cycles, each one update and
``RELOADS_PER_CYCLE`` warm reloads on one server, then reads on another;
update-mixed reads and writes on one server at once and times its warm
reloads after the checks; build runs cycles of a cold build, a warm build
and one update in a worker process.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

import build_worker
import inputs
import measure
import serve
from tracer import ID, PARENT

SETUPS = 3
WARMUP_SECONDS = 1.0
# serve-*: each cycle is one update and RELOADS_PER_CYCLE warm reloads on
# one server, then READ_SECONDS_PER_CYCLE of reads on another.
CYCLE_SECONDS = 2.0  # --seconds per cycle: sets the cycle count
RELOADS_PER_CYCLE = 3
READ_SECONDS_PER_CYCLE = 1.0
MIXED_RELOADS = 20  # update-mixed: warm reloads after its checks
PROBE_DRAWS = 100_000
PROBE_CHUNK = 2048
UPDATE_INTERVAL_SECONDS = 1.0
GRAPH_NAME = "g"
MAX_LENGTH = 4  # -k, the one estimation flag not left at its CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    make_graph: Callable
    kind: str  # "serve", "update" or "build"
    connections: int
    paths_per_request: tuple[int, int]
    bodies_per_connection: int


# Why each workload exists, and which ones BENCHMARK.json gates: README.md.
WORKLOADS = {
    "serve-point": Workload("serve-point", inputs.dbpedia_graph, "serve", 2, (1, 8), 4096),
    "serve-bulk": Workload("serve-bulk", inputs.zipf_graph, "serve", 1, (256, 256), 512),
    "update-mixed": Workload("update-mixed", inputs.moreno_graph, "update", 1, (1, 8), 4096),
    "build": Workload("build", inputs.snap_er_graph, "build", 0, (0, 0), 0),
}


class Tally:
    """Ops attempted and failed; the first few failures are kept as text."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)
        return ok


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)

    def e2e(self, name: str, value: float, unit: str, samples: int) -> None:
        self.end_to_end[name] = Metric(float(value), unit, int(samples))

    def layer(self, name: str, value: float, unit: str, samples: int) -> None:
        self.per_layer[name] = Metric(float(value), unit, int(samples))


# ----------------------------------------------------------------------
# preparation
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    workload: Workload
    work: str
    graph_path: str
    graph: object
    config: object
    reference: "Reference"
    request_paths: list  # per connection: list of path lists
    request_bodies: list  # per connection: list of bytes
    probes: list
    multiplicity: np.ndarray
    deltas: list


def server_config(max_length: int):
    """The engine config ``repro serve`` derives from its own CLI defaults."""
    from repro.cli import build_parser
    from repro.engine import EngineConfig

    args = build_parser().parse_args(
        ["serve", "--graph", f"{GRAPH_NAME}=unused", "-k", str(max_length)]
    )
    return EngineConfig.from_args(args)


def prepare(workload: Workload, seed: int, seconds: float, work: str) -> Prepared:
    from repro.engine import EstimationSession
    from repro.graph.io import read_edge_list, write_edge_list

    import repro.serving  # noqa: F401 - compiles the serving modules' bytecode once

    graph_path = os.path.join(work, "graph.tsv")
    write_edge_list(workload.make_graph(), graph_path)
    graph = read_edge_list(graph_path)
    config = server_config(MAX_LENGTH)
    reference = EstimationSession.build(graph, config)
    sampler = inputs.PathSampler(reference.catalog, seed)
    request_paths, request_bodies = [], []
    low, high = workload.paths_per_request
    for _ in range(workload.connections):
        lists = sampler.requests(workload.bodies_per_connection, low, high)
        request_paths.append(lists)
        request_bodies.append([inputs.estimate_body(GRAPH_NAME, p) for p in lists])
    probes, multiplicity = inputs.probe_set(
        inputs.PathSampler(reference.catalog, seed + 1_000_003), PROBE_DRAWS
    )
    # A fixed count, so the final state, its accuracy and the artifacts do
    # not depend on how fast the program is.
    if workload.kind == "update":
        delta_count = max(1, round(seconds / UPDATE_INTERVAL_SECONDS))
    elif workload.kind == "serve":
        delta_count = cycle_count(seconds)
    else:
        # One per cycle; a build cycle takes far longer than a second.
        delta_count = max(1, round(seconds))
    deltas = inputs.delta_sequence(graph, delta_count, seed + 2_000_003)
    sessions = [reference]
    if workload.kind == "update":
        from repro.graph.delta import GraphDelta

        state = graph.copy()
        for delta in deltas:
            GraphDelta.from_dict(delta).apply(state)
            sessions.append(EstimationSession.build(state.copy(), config))
    references = Reference(sessions)
    references.preload(
        [p for lists in request_paths for paths in lists for p in paths] + probes
    )
    return Prepared(
        workload, work, graph_path, graph, config, references, request_paths,
        request_bodies, probes, multiplicity, deltas,
    )


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------
class Reference:
    """Reference estimates per graph state, looked up by path string."""

    def __init__(self, sessions: list) -> None:
        self._sessions = sessions
        self._tables: list[dict[str, float]] = [{} for _ in sessions]

    def value(self, state: int, path: str) -> float:
        table = self._tables[state]
        if path not in table:
            table[path] = float(self._sessions[state].estimate_batch([path])[0])
        return table[path]

    def preload(self, paths: list[str]) -> None:
        unique = sorted(set(paths))
        for state, session in enumerate(self._sessions):
            values = session.estimate_batch(unique).tolist()
            self._tables[state].update(zip(unique, values))

    def session(self, state: int):
        return self._sessions[state]

    @property
    def states(self) -> int:
        return len(self._sessions)


def check_answer(reference: Reference, states: range, paths: list[str], body: bytes) -> str:
    """Empty string when ``body`` answers ``paths`` as one of ``states`` does."""
    try:
        served = json.loads(body)["estimates"]
    except (ValueError, KeyError, TypeError):
        return "unparseable estimate answer"
    if len(served) != len(paths):
        return f"{len(served)} estimates for {len(paths)} paths"
    for state in states:
        if all(float(v) == reference.value(state, p) for p, v in zip(paths, served)):
            return ""
    for path, value in zip(paths, served):
        if all(float(value) != reference.value(s, path) for s in states):
            expected = [reference.value(s, path) for s in states]
            return f"path {path}: served {value!r}, reference {expected}"
    return "estimates mix graph states"


def check_exchanges(tally: Tally, reference: Reference, paths_by_conn: list,
                    exchanges: list, states_of: Callable) -> None:
    """Count each exchange as an op; wrong answers and non-2xx fail it."""
    for conn_index, exchange in exchanges:
        if exchange.status != 200:
            tally.op(False, f"HTTP {exchange.status or 'connection failure'}")
            continue
        paths = paths_by_conn[conn_index][exchange.index]
        problem = check_answer(reference, states_of(exchange), paths, exchange.body)
        tally.op(not problem, problem)


def served_probe_accuracy(outcome: Outcome, conn: serve.Connection, prepared: Prepared,
                          reference: Reference, state: int) -> None:
    """Check the probe set as served, then score it (Eq. 6, floored q-error)."""
    tally = outcome.tally
    served = []
    for start in range(0, len(prepared.probes), PROBE_CHUNK):
        chunk = prepared.probes[start : start + PROBE_CHUNK]
        status, body = conn.request(
            "POST", "/v1/estimate", inputs.estimate_body(GRAPH_NAME, chunk)
        )
        if status != 200:
            problem = f"probe chunk answered HTTP {status or 'connection failure'}"
        else:
            problem = check_answer(reference, range(state, state + 1), chunk, body)
        if not tally.op(not problem, problem):
            return
        served.extend(json.loads(body)["estimates"])
    record_accuracy(outcome, prepared, np.asarray(served, dtype=np.float64),
                    reference.session(state))


def record_accuracy(outcome: Outcome, prepared: Prepared, served: np.ndarray, session) -> None:
    truths = np.array(
        [session.true_selectivity(p) for p in prepared.probes], dtype=np.float64
    )
    scores = measure.accuracy(served, truths, prepared.multiplicity)
    outcome.e2e("est_error_mean", scores["est_error_mean"], "1", scores["probes"])
    outcome.e2e("qerror_p95", scores["qerror_p95"], "1", scores["probes"])


# ----------------------------------------------------------------------
# server workloads
# ----------------------------------------------------------------------
def child_env(work: str) -> dict:
    env = dict(os.environ)
    env["TMPDIR"] = work
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def serve_argv(prepared: Prepared, cache_dir: str, spans_path: Optional[str]) -> list[str]:
    args = [
        "serve", "--graph", f"{GRAPH_NAME}={prepared.graph_path}",
        "-k", str(MAX_LENGTH), "--workers", "1", "--warm",
        "--port", "0", "--cache-dir", cache_dir,
    ]
    if spans_path is None:
        return [sys.executable, "-m", "repro", *args]
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "launcher.py"), spans_path, "--", *args]


@dataclass
class ServerPass:
    """Everything one server pass measured, for the metric derivations."""

    setup_s: list = field(default_factory=list)
    ready_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    stage_s: dict = field(default_factory=dict)
    reads: list = field(default_factory=list)  # (conn, Exchange), timed
    read_seconds: float = 0.0  # time the planners spent in timed reads
    read_window: tuple = (0.0, 0.0)  # the timed phase, on the span clock
    updates: list = field(default_factory=list)  # dicts: due, sent, received, status, row
    warm_ms: list = field(default_factory=list)
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    artifact_mb: float = 0.0
    spans: list = field(default_factory=list)  # every kept server's, ids made unique
    read_spans: list = field(default_factory=list)  # the planners' server's only


#: Span ids restart at 1 in every process; spans of the ``j``-th kept server
#: are shifted by ``j * SPAN_ID_STRIDE`` so they can share one index.
SPAN_ID_STRIDE = 1 << 40


def run_server_pass(prepared: Prepared, outcome: Outcome, seconds: float, *,
                    traced: bool, setups: int) -> ServerPass:
    """Set up ``setups`` servers and drive the last ones.

    serve-* keep two: an operator's server, which takes the updates and the
    warm reloads, and the planners' server, which takes the reads, so that
    neither kind of work runs beside the other.  update-mixed keeps one.
    """
    tag = "traced" if traced else "plain"
    keep = 2 if prepared.workload.kind == "serve" else 1
    setups = max(setups, keep)
    result = ServerPass()
    kept = []  # (server, cache_dir, spans_path)
    try:
        for attempt in range(setups):
            cache_dir = os.path.join(prepared.work, f"cache-{tag}-{attempt}")
            spans_path = os.path.join(prepared.work, f"spans-{attempt}.json") if traced else None
            server = serve.ServerProcess(
                serve_argv(prepared, cache_dir, spans_path),
                env=child_env(prepared.work), cwd=os.getcwd(),
                log_path=os.path.join(prepared.work, f"server-{tag}-{attempt}.log"),
            )
            discard = attempt < setups - keep
            if not discard:
                kept.append((server, cache_dir, spans_path))
            try:
                set_up(prepared, outcome, result, server)
            finally:
                if discard:
                    server.stop()
                    shutil.rmtree(cache_dir, ignore_errors=True)
        servers = [server for server, _, _ in kept]
        if prepared.workload.kind == "serve":
            drive_cycles(prepared, outcome, result, servers[0], servers[1], seconds, tag)
        else:
            drive_mixed(prepared, outcome, result, servers[0], seconds, tag)
        result.peak_rss_mb = max(build_worker.vm_hwm_mb(s.proc.pid) for s in servers)
    finally:
        for server, _, _ in kept:
            server.stop()
    # The server that took the updates: its cold build and one set per update.
    result.artifact_mb = build_worker.dir_bytes(kept[0][1]) / 2**20
    if traced:
        for j, (_, _, spans_path) in enumerate(kept):
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)["spans"]
            for span in spans:
                span[ID] += j * SPAN_ID_STRIDE
                span[PARENT] += j * SPAN_ID_STRIDE if span[PARENT] else 0
            result.spans.extend(spans)
        result.read_spans = spans
    return result


def set_up(prepared: Prepared, outcome: Outcome, result: ServerPass, server) -> None:
    """Time spawn → first answer, and read the cold build's stage times."""
    conn = serve.Connection(server.host, server.port)
    try:
        status, body = conn.request("POST", "/v1/estimate", prepared.request_bodies[0][0])
        answered = time.perf_counter()
        problem = (
            check_answer(prepared.reference, range(1), prepared.request_paths[0][0], body)
            if status == 200 else f"first request answered HTTP {status}"
        )
        outcome.tally.op(not problem, problem)
        result.setup_s.append(answered - server.spawned)
        result.ready_s.append(server.ready - server.spawned)
        series = serve.scrape_metrics(conn)
    finally:
        conn.close()
    build_total = serve.series_sum(series, "repro_build_stage_seconds_sum", stage="total")
    result.import_s.append(result.ready_s[-1] - build_total)
    for stage in ("fingerprint", "catalog", "positions", "histogram"):
        result.stage_s.setdefault(stage, []).append(
            serve.series_sum(series, "repro_build_stage_seconds_sum", stage=stage)
        )


def drive_cycles(prepared: Prepared, outcome: Outcome, result: ServerPass, operator,
                 planner, seconds: float, tag: str) -> None:
    """serve-*: warm-up, the timed cycles, then the answer checks.

    Each of the ``cycle_count(seconds)`` cycles sends one update and
    ``RELOADS_PER_CYCLE`` warm reloads to the operator's server, then lets
    the planners read for ``READ_SECONDS_PER_CYCLE``.  So every end-to-end
    figure is a median over samples from the whole run, not from one
    stretch of it, and each kind of op runs alone.
    """
    reference = prepared.reference
    planners = serve.Planners(
        planner.host, planner.port, prepared.request_bodies,
        rid_prefix="t" if tag == "traced" else "",
    )
    conn = serve.Connection(planner.host, planner.port)
    untimed, reloads = [], []
    try:
        warm_end = time.perf_counter() + WARMUP_SECONDS
        untimed += planners.run(until=lambda: time.perf_counter() >= warm_end).exchanges
        untimed_reload = reload_session(operator)
        result.metrics_before = serve.scrape_metrics(conn)
        result.stats_before = serve.get_json(conn, "/v1/stats")

        cycles = cycle_count(seconds)
        # The client's own collector must not pause a timed request.
        gc.disable()
        try:
            started = time.perf_counter()
            for cycle in range(cycles):
                delta = prepared.deltas[cycle]
                result.updates.append(send_update(operator, delta, time.perf_counter()))
                reloads += [reload_session(operator) for _ in range(RELOADS_PER_CYCLE)]
                # After a pause the kernel acknowledges a connection's next
                # segment at once, which a planner that never pauses does not
                # get: one untimed request per planner before timing resumes.
                untimed += planners.run(count=1).exchanges
                reads_end = time.perf_counter() + READ_SECONDS_PER_CYCLE
                segment = planners.run(until=lambda: time.perf_counter() >= reads_end)
                result.reads += segment.exchanges
                result.read_seconds += segment.seconds
            ended = time.perf_counter()
        finally:
            gc.enable()
        result.read_window = (started, ended)
        result.metrics_after = serve.scrape_metrics(conn)
        result.stats_after = serve.get_json(conn, "/v1/stats")

        # Checks run only now, after the timed phase.
        check_reloads(outcome.tally, [untimed_reload])
        result.warm_ms = check_reloads(outcome.tally, reloads)
        check_updates(outcome.tally, result.updates)
        check_exchanges(outcome.tally, reference, prepared.request_paths,
                        untimed + result.reads, lambda e: range(1))
        served_probe_accuracy(outcome, conn, prepared, reference, 0)
    finally:
        planners.close()
        conn.close()


def drive_mixed(prepared: Prepared, outcome: Outcome, result: ServerPass, server,
                seconds: float, tag: str) -> None:
    """update-mixed: warm-up, reader and open-loop writer, checks, warm reloads."""
    reference = prepared.reference
    planners = serve.Planners(
        server.host, server.port, prepared.request_bodies,
        rid_prefix="t" if tag == "traced" else "",
    )
    conn = serve.Connection(server.host, server.port)
    try:
        warm_end = time.perf_counter() + WARMUP_SECONDS
        untimed = planners.run(until=lambda: time.perf_counter() >= warm_end).exchanges
        result.metrics_before = serve.scrape_metrics(conn)
        result.stats_before = serve.get_json(conn, "/v1/stats")

        gc.disable()
        try:
            started = time.perf_counter()
            writer = threading.Thread(
                target=write_deltas,
                args=(server, prepared.deltas, started, seconds, result.updates),
            )
            writer.start()
            segment = planners.run(until=lambda: time.perf_counter() >= started + seconds)
            writer.join()
        finally:
            gc.enable()
        result.reads = segment.exchanges
        result.read_seconds = segment.seconds
        result.read_window = (started, segment.ended)
        result.metrics_after = serve.scrape_metrics(conn)
        result.stats_after = serve.get_json(conn, "/v1/stats")

        # Checks run only now, after the timed phase.
        check_updates(outcome.tally, result.updates)
        check_exchanges(outcome.tally, reference, prepared.request_paths, untimed,
                        lambda e: range(1))
        check_exchanges(outcome.tally, reference, prepared.request_paths, result.reads,
                        candidate_states(result.updates))
        served_probe_accuracy(outcome, conn, prepared, reference, reference.states - 1)
        reloads = [reload_session(server) for _ in range(MIXED_RELOADS)]
        result.warm_ms = check_reloads(outcome.tally, reloads)
    finally:
        planners.close()
        conn.close()


def cycle_count(seconds: float) -> int:
    """How many update / reload / read cycles a serve-* pass of ``seconds`` runs."""
    return max(1, round(seconds / CYCLE_SECONDS))


def reload_session(server) -> tuple[int, int, bytes, float]:
    """Evict the session, then time ``/v1/warm`` loading it from its artifacts.

    Returns both statuses, the warm answer and its round trip in ms.
    Management calls (evict, warm, update) each open their own connection,
    as an operator's one-off request would, and so carry no keep-alive
    delayed-ACK stall.
    """
    evicted, _ = one_shot(server, "/v1/evict", {"graph": GRAPH_NAME})
    sent = time.perf_counter()
    status, body = one_shot(server, "/v1/warm", {"graph": GRAPH_NAME})
    return evicted, status, body, (time.perf_counter() - sent) * 1000.0


def check_reloads(tally: Tally, reloads: list) -> list[float]:
    """Count each evict and warm as an op; the times of the warm loads that hit the cache."""
    times = []
    for evicted, status, body, ms in reloads:
        tally.op(evicted == 200, f"evict answered HTTP {evicted}")
        hit = status == 200 and json.loads(body)["stats"].get("catalog_from_cache") is True
        if tally.op(hit, f"warm reload answered HTTP {status} without a cache hit"):
            times.append(ms)
    return times


def one_shot(server, route: str, document: dict) -> tuple[int, bytes]:
    """POST ``document`` on a connection of its own."""
    conn = serve.Connection(server.host, server.port)
    try:
        return conn.request("POST", route, json.dumps(document).encode("utf-8"))
    finally:
        conn.close()


def send_update(server, delta: dict, due: float) -> dict:
    sent = time.perf_counter()
    status, answer = one_shot(server, "/v1/update", {"graph": GRAPH_NAME, **delta})
    received = time.perf_counter()
    row = json.loads(answer) if status == 200 else {}
    return {"due": due, "sent": sent, "received": received, "status": status, "row": row}


def write_deltas(server, deltas: list, started: float, seconds: float, out: list) -> None:
    """Open-loop writer: delta ``i`` is due at ``(i + 0.5) * seconds / D``."""
    interval = seconds / len(deltas)
    for i, delta in enumerate(deltas):
        due = started + (i + 0.5) * interval
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        out.append(send_update(server, delta, due))


def check_updates(tally: Tally, updates: list) -> None:
    for update in updates:
        row = update["row"]
        ok = (
            update["status"] == 200
            and row.get("built") is True
            and row.get("additions") == 2
            and row.get("removals") == 2
        )
        tally.op(ok, f"update answered HTTP {update['status']}: {row}")


def candidate_states(updates: list) -> Callable:
    """Graph states a read may have seen, from the update windows around it.

    State ``j`` (after ``j`` deltas) is live from some instant inside update
    ``j``'s request window until some instant inside update ``j + 1``'s.
    """
    sent = [u["sent"] for u in updates]
    received = [u["received"] for u in updates]

    def states_of(exchange) -> range:
        first = sum(1 for r in received if r < exchange.sent)
        last = sum(1 for s in sent if s < exchange.received)
        return range(first, last + 1)

    return states_of


# ----------------------------------------------------------------------
# build workload
# ----------------------------------------------------------------------
def run_build_pass(prepared: Prepared, seconds: float, *, traced: bool, setups: int) -> dict:
    """Set up ``setups`` build workers, keep the last one and let it run."""
    tag = "traced" if traced else "plain"
    job = {
        "graph": prepared.graph_path,
        # The same engine config as the server workloads and the reference.
        "config": asdict(prepared.config),
        "work": os.path.join(prepared.work, f"build-{tag}"),
        "seconds": seconds,
        "deltas": prepared.deltas,
        "probes": prepared.probes,
        "traced": traced,
    }
    job_path = os.path.join(prepared.work, f"job-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "build_worker.py")
    setup_s, first_build_s = [], []
    for attempt in range(setups):
        last = attempt == setups - 1
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, worker, job_path], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(prepared.work), cwd=os.getcwd(),
        )
        try:
            line = serve.read_line(proc, spawned + 150.0)
            if not line.startswith("ready "):
                raise RuntimeError(f"build worker failed to start: {line!r}")
            setup_s.append(time.perf_counter() - spawned)
            first_build_s.append(float(line.split()[1]))
            proc.stdin.write(b"go\n" if last else b"exit\n")
            proc.stdin.close()
            if last and serve.read_line(proc, time.perf_counter() + seconds + 150.0) != "done":
                raise RuntimeError("build worker did not finish its timed phase")
            if proc.wait(timeout=30) != 0:
                raise RuntimeError("build worker exited with an error")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    with open(os.path.join(job["work"], "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    report["setup_s"] = setup_s
    report["first_build_s"] = first_build_s
    return report
