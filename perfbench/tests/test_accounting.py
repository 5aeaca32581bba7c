import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

import inputs
import serve
import workloads


class FixedSession:
    """Answers every path with the same estimate, like a reference session."""

    def __init__(self, value: float) -> None:
        self.value = value

    def estimate_batch(self, paths):
        return np.full(len(paths), self.value)


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    answered = 0

    def log_message(self, *args):
        pass

    def do_POST(self):
        paths = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["paths"]
        StubHandler.answered += 1
        if StubHandler.answered == 2:
            status, doc = 503, {"error": "busy", "code": "unavailable"}
        else:
            wrong = StubHandler.answered == 1
            doc = {"estimates": [2.5 if wrong else 1.5] * len(paths)}
            status = 200
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_wrong_estimate_and_503_count_as_two_failed_ops():
    StubHandler.answered = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        paths = [["1/2"], ["2"], ["1/1/2"], ["3/1"]]
        bodies = [[inputs.estimate_body("g", p) for p in paths]]
        planners = serve.Planners("127.0.0.1", server.server_address[1], bodies)
        try:
            loop = planners.run(count=4)
        finally:
            planners.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(loop.exchanges) == 4
    tally = workloads.Tally()
    reference = workloads.Reference([FixedSession(1.5)])
    workloads.check_exchanges(tally, reference, [paths], loop.exchanges, lambda e: range(1))
    assert (tally.attempted, tally.failed) == (4, 2)
    assert any("503" in problem for problem in tally.problems)
    assert any("served 2.5" in problem for problem in tally.problems)


class EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    seen = []  # (client port, paths) per request

    def log_message(self, *args):
        pass

    def do_POST(self):
        paths = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["paths"]
        EchoHandler.seen.append((self.client_address[1], paths))
        body = json.dumps({"estimates": [1.0] * len(paths)}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_planners_keep_connection_and_place_across_segments():
    EchoHandler.seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        paths = [["1"], ["2"], ["3"]]
        bodies = [[inputs.estimate_body("g", p) for p in paths]]
        planners = serve.Planners("127.0.0.1", server.server_address[1], bodies)
        try:
            first = planners.run(count=2)
            second = planners.run(count=3)
        finally:
            planners.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [e.index for _, e in first.exchanges + second.exchanges] == [0, 1, 2, 0, 1]
    assert [p for _, p in EchoHandler.seen] == [["1"], ["2"], ["3"], ["1"], ["2"]]
    assert len({port for port, _ in EchoHandler.seen}) == 1
    assert 0 < first.seconds and first.ended <= second.started


def test_candidate_states_follow_the_update_windows():
    updates = [
        {"sent": 10.0, "received": 12.0},
        {"sent": 20.0, "received": 22.0},
    ]
    states_of = workloads.candidate_states(updates)

    def read(sent, received):
        return list(states_of(serve.Exchange(sent, received, 200, 0, b"")))

    assert read(1.0, 2.0) == [0]
    assert read(11.0, 11.5) == [0, 1]
    assert read(13.0, 14.0) == [1]
    assert read(19.0, 23.0) == [1, 2]
    assert read(30.0, 31.0) == [2]


def test_a_read_must_match_one_state_for_all_its_paths():
    reference = workloads.Reference([FixedSession(1.0), FixedSession(2.0)])
    mixed = json.dumps({"estimates": [1.0, 2.0]}).encode()
    same = json.dumps({"estimates": [2.0, 2.0]}).encode()
    assert workloads.check_answer(reference, range(2), ["1", "2"], same) == ""
    assert workloads.check_answer(reference, range(2), ["1", "2"], mixed) != ""
    assert workloads.check_answer(reference, range(1), ["1", "2"], same) != ""


class StubGraph:
    def __init__(self, edges):
        self._edges = edges

    def vertices(self):
        return {v for s, _, t in self._edges for v in (s, t)}

    def labels(self):
        return sorted({label for _, label, _ in self._edges})

    def edges(self):
        from collections import namedtuple

        edge = namedtuple("Edge", "source label target")
        return [edge(*e) for e in self._edges]


def test_delta_sequence_keeps_size_and_never_repeats_a_state():
    edges = [(str(i), str(i % 3 + 1), str((i * 7) % 20)) for i in range(20)]
    state = set(edges)
    seen = {frozenset(state)}
    deltas = inputs.delta_sequence(StubGraph(edges), 12, seed=5)
    assert deltas == inputs.delta_sequence(StubGraph(edges), 12, seed=5)
    for delta in deltas:
        removals = {tuple(e) for e in delta["remove"]}
        additions = {tuple(e) for e in delta["add"]}
        assert removals <= state and not additions & state
        state = (state - removals) | additions
        assert len(state) == len(edges)
        assert frozenset(state) not in seen
        seen.add(frozenset(state))
