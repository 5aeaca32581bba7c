"""Fault-tolerance tests: retries, supervision, circuit breaker, drain."""

from __future__ import annotations

import http.client
import json
import logging.handlers
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import EngineConfig
from repro.exceptions import (
    CircuitOpenError,
    EngineError,
    GraphOverloadedError,
    SchedulerCrashError,
    ServiceRequestError,
)
from repro.graph.generators import zipf_labeled_graph
from repro.graph.io import write_edge_list
from repro.serving import (
    EstimateScheduler,
    ServiceClient,
    SessionRegistry,
    make_server,
)
from repro.serving import http as serving_http
from repro.retry import RetryState
from repro.testing import injector

CONFIG = EngineConfig(max_length=2, bucket_count=8)


@pytest.fixture(autouse=True)
def _clean_injector():
    injector.reset()
    yield
    injector.reset()


def _registry(**kwargs) -> SessionRegistry:
    registry = SessionRegistry(default_config=CONFIG, **kwargs)
    registry.register(
        "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g")
    )
    return registry


@pytest.fixture()
def server():
    server = make_server(_registry(), port=0, window_seconds=0.001)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


class TestSchedulerSupervision:
    def test_crash_fails_futures_and_restarts_worker(self):
        with EstimateScheduler(_registry(), window_seconds=0.001) as scheduler:
            with injector.armed(
                "scheduler.worker", error=RuntimeError("chaos"), times=1
            ):
                future = scheduler.submit_many("g", ["1/2"])
                with pytest.raises(SchedulerCrashError, match="worker crashed"):
                    future.result(timeout=5)
            # No stranded futures, and the restarted worker keeps serving.
            assert scheduler.submit_many("g", ["1/2"]).result(timeout=5)[0] > 0
            snapshot = scheduler.stats.snapshot()
            assert snapshot["worker_restarts"] == 1
            assert snapshot["crashed_requests_total"] >= 1

    def test_repeated_crashes_never_strand_a_future(self):
        with EstimateScheduler(_registry(), window_seconds=0.001) as scheduler:
            with injector.armed(
                "scheduler.worker", error=lambda: RuntimeError("chaos"), times=3
            ):
                for _ in range(3):
                    future = scheduler.submit_many("g", ["2"])
                    with pytest.raises(SchedulerCrashError):
                        future.result(timeout=5)
            assert scheduler.submit_many("g", ["2"]).result(timeout=5)[0] > 0
            assert scheduler.stats.snapshot()["worker_restarts"] == 3

    def test_http_layer_maps_crash_to_retryable_503(self, server):
        injector.arm("scheduler.worker", error=RuntimeError("chaos"), times=1)
        client = ServiceClient(_url(server), timeout=10, backoff_seconds=0.01)
        # The first attempt dies with the worker; the retry succeeds.
        estimates = client.estimate("g", ["1/2"])
        assert estimates[0] > 0
        assert client.stats()["scheduler"]["worker_restarts"] == 1


class TestPerGraphAdmission:
    def test_hot_graph_gets_429_while_budget_is_spent(self):
        scheduler = EstimateScheduler(
            _registry(), window_seconds=0.001, max_pending_per_graph=1
        )
        try:
            scheduler.registry.get("g")  # pre-build: the delay is the only stall
            with injector.armed("scheduler.worker", delay=0.4, times=1):
                first = scheduler.submit_many("g", ["1/2"])
                _wait_for(lambda: injector.fired("scheduler.worker") == 1)
                with pytest.raises(GraphOverloadedError) as excinfo:
                    scheduler.submit_many("g", ["2"])
                assert excinfo.value.graph == "g"
                assert excinfo.value.budget == 1
                assert first.result(timeout=5)[0] > 0
            # Budget released with the batch: submissions flow again.
            assert scheduler.submit_many("g", ["2"]).result(timeout=5)[0] > 0
            assert scheduler.stats.snapshot()["rejected_graph_total"] == 1
        finally:
            scheduler.close()

    def test_http_maps_graph_admission_to_429(self):
        server = make_server(
            _registry(), port=0, window_seconds=0.001, max_pending_per_graph=1
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            ServiceClient(_url(server)).warm("g")
            with injector.armed("scheduler.worker", delay=0.4, times=1):
                blocked = ServiceClient(_url(server), max_retries=0)
                background = threading.Thread(
                    target=lambda: blocked.estimate("g", ["1/2"]), daemon=True
                )
                background.start()
                _wait_for(lambda: injector.fired("scheduler.worker") == 1)
                request = urllib.request.Request(
                    f"{_url(server)}/v1/estimate",
                    data=json.dumps({"graph": "g", "paths": ["2"]}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=5)
                assert excinfo.value.code == 429
                assert float(excinfo.value.headers["Retry-After"]) >= 0
                background.join(timeout=10)
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)


class TestCircuitBreaker:
    def _failing_registry(self, **kwargs) -> SessionRegistry:
        registry = _registry(**kwargs)
        injector.arm(
            "registry.build",
            error=lambda: EngineError("build exploded"),
            times=-1,
            match=lambda ctx: ctx.get("graph") == "g",
        )
        return registry

    def test_threshold_failures_trip_the_circuit(self):
        registry = self._failing_registry(
            breaker_threshold=2, breaker_reset_seconds=60.0
        )
        for _ in range(2):
            with pytest.raises(EngineError, match="build exploded"):
                registry.get("g")
        with pytest.raises(CircuitOpenError) as excinfo:
            registry.get("g")
        assert excinfo.value.retry_after > 0
        assert registry.stats.circuits_opened == 1
        assert registry.stats.circuit_fast_failures >= 1
        assert registry.stats.build_failures == 2
        row = next(r for r in registry.describe() if r["name"] == "g")
        assert row["circuit"] == "open"
        assert row["retry_after_seconds"] > 0

    def test_open_circuit_fast_fails_without_building(self):
        registry = self._failing_registry(
            breaker_threshold=1, breaker_reset_seconds=60.0
        )
        injector.reset()
        injector.arm(
            "registry.build",
            error=lambda: EngineError("build exploded"),
            delay=0.2,
            times=-1,
        )
        with pytest.raises(EngineError):
            registry.get("g")  # slow doomed build trips the breaker
        started = time.perf_counter()
        with pytest.raises(CircuitOpenError):
            registry.get("g")
        assert time.perf_counter() - started < 0.05

    def test_half_open_probe_success_closes_the_circuit(self):
        registry = self._failing_registry(
            breaker_threshold=1, breaker_reset_seconds=0.15
        )
        with pytest.raises(EngineError):
            registry.get("g")
        with pytest.raises(CircuitOpenError):
            registry.get("g")
        time.sleep(0.2)
        injector.reset()  # the graph is healthy again: the probe succeeds
        session = registry.get("g")
        assert session.estimate("1/2") >= 0
        row = next(r for r in registry.describe() if r["name"] == "g")
        assert row["circuit"] == "closed"
        assert row["consecutive_build_failures"] == 0

    def test_failed_probe_reopens_immediately(self):
        registry = self._failing_registry(
            breaker_threshold=5, breaker_reset_seconds=0.15
        )
        for _ in range(5):
            with pytest.raises(EngineError):
                registry.get("g")
        with pytest.raises(CircuitOpenError):
            registry.get("g")
        time.sleep(0.2)
        with pytest.raises(EngineError):
            registry.get("g")  # the half-open probe fails...
        with pytest.raises(CircuitOpenError):
            registry.get("g")  # ...and one failure re-opened the circuit
        assert registry.stats.circuits_opened == 2

    def test_probe_ended_by_base_exception_frees_the_next_probe(self):
        class Abandoned(BaseException):
            pass

        registry = self._failing_registry(breaker_threshold=1, breaker_reset_seconds=0.15)
        with pytest.raises(EngineError):
            registry.get("g")
        time.sleep(0.2)
        injector.reset()
        injector.arm("registry.build", error=Abandoned(), times=1)
        with pytest.raises(Abandoned):
            registry.get("g")  # the half-open probe leaves without a result...
        with pytest.raises(CircuitOpenError):
            registry.get("g")  # ...which counts as a failed probe
        assert registry.stats.build_failures == 2
        time.sleep(0.2)
        assert registry.get("g").estimate("1/2") >= 0  # the next probe is let in
        row = next(r for r in registry.describe() if r["name"] == "g")
        assert row["circuit"] == "closed"

    def test_breaker_disabled_never_trips(self):
        registry = self._failing_registry(breaker_threshold=0)
        for _ in range(5):
            with pytest.raises(EngineError, match="build exploded"):
                registry.get("g")
        assert registry.stats.circuits_opened == 0

    def test_http_maps_open_circuit_to_503_with_hint(self):
        registry = self._failing_registry(
            breaker_threshold=1, breaker_reset_seconds=60.0
        )
        server = make_server(registry, port=0, window_seconds=0.001)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(_url(server), max_retries=0)
            with pytest.raises(ServiceRequestError, match="HTTP 400"):
                client.warm("g")  # trips the breaker (EngineError -> 400)
            with pytest.raises(ServiceRequestError, match="circuit open") as excinfo:
                client.warm("g")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after > 0
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)


class TestClientRetries:
    def test_retry_recovers_across_backpressure(self, server):
        injector.arm("scheduler.worker", delay=0.2, times=1)
        quick = ServiceClient(_url(server), max_retries=0)
        quick.warm("g")
        patient = ServiceClient(
            _url(server), max_retries=5, backoff_seconds=0.05, timeout=10
        )
        threads = [
            threading.Thread(
                target=lambda: patient.estimate("g", ["1/2"]), daemon=True
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)

    def test_deadline_caps_the_retry_loop(self, server):
        server.scheduler.close()  # every estimate now answers 503
        client = ServiceClient(
            _url(server),
            max_retries=50,
            backoff_seconds=0.2,
            backoff_max_seconds=0.2,
        )
        started = time.monotonic()
        with pytest.raises(ServiceRequestError, match="503"):
            client.estimate("g", ["1/2"], deadline_seconds=0.6)
        assert time.monotonic() - started < 2.0

    def test_deadline_between_attempts_keeps_the_last_status(self, server, monkeypatch):
        # Force the budget to run out between attempts (the timing-dependent
        # branch): the first attempt runs and answers 503, the second finds
        # the deadline spent.  The error must still carry that 503.
        server.scheduler.close()
        begin_attempt = RetryState.begin_attempt
        calls = []

        def second_call_exhausted(state, timeout):
            calls.append(timeout)
            return None if len(calls) == 2 else begin_attempt(state, timeout)

        monkeypatch.setattr(RetryState, "begin_attempt", second_call_exhausted)
        client = ServiceClient(
            _url(server),
            max_retries=5,
            backoff_seconds=0.001,
            backoff_max_seconds=0.001,
        )
        with pytest.raises(ServiceRequestError, match="deadline") as excinfo:
            client.estimate("g", ["1/2"], deadline_seconds=30.0)
        assert len(calls) == 2
        assert excinfo.value.status == 503
        assert "503" in str(excinfo.value)
        assert excinfo.value.code is not None
        assert excinfo.value.envelope is not None
        assert excinfo.value.retry_after is not None
        assert excinfo.value.attempts == 1

    def test_non_retryable_status_fails_fast(self, server):
        client = ServiceClient(_url(server), backoff_seconds=0.01)
        with pytest.raises(ServiceRequestError, match="HTTP 404") as excinfo:
            client.estimate("nope", ["1/2"])
        assert excinfo.value.status == 404
        assert excinfo.value.attempts == 1

    def test_connection_errors_consume_the_retry_budget(self):
        client = ServiceClient(
            "http://127.0.0.1:9", max_retries=2, backoff_seconds=0.001, timeout=0.2
        )
        with pytest.raises(ServiceRequestError, match="cannot reach") as excinfo:
            client.healthz()
        assert excinfo.value.attempts == 3

    def test_retry_after_header_on_backpressure_503(self, server):
        server.scheduler.close()
        request = urllib.request.Request(
            f"{_url(server)}/v1/estimate",
            data=json.dumps({"graph": "g", "paths": ["1"]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 503
        assert float(excinfo.value.headers["Retry-After"]) >= 0
        assert "retry_after" in json.loads(excinfo.value.read().decode())


class TestRequestBodyCap:
    def test_oversized_body_is_413(self):
        server = make_server(_registry(), port=0, max_body_bytes=1024)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(_url(server))
            huge = ["1/2"] * 2000
            with pytest.raises(ServiceRequestError, match="HTTP 413") as excinfo:
                client.estimate("g", huge)
            assert excinfo.value.status == 413
            assert excinfo.value.attempts == 1  # not retryable
            assert client.estimate("g", ["1/2"])[0] > 0  # small bodies still fine
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)


class TestGracefulClose:
    def test_close_alone_stops_a_running_server(self):
        server = make_server(_registry(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        ServiceClient(_url(server)).healthz()
        server.close()  # no explicit shutdown(): close must do it itself
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_close_without_serve_forever_does_not_hang(self):
        server = make_server(_registry(), port=0)
        done = threading.Event()

        def _close() -> None:
            server.close()
            done.set()

        thread = threading.Thread(target=_close, daemon=True)
        thread.start()
        assert done.wait(timeout=5), "close() hung without a serve loop"


class TestFaultBarrier:
    def test_unexpected_route_fault_is_a_500_envelope_on_a_live_connection(self, tmp_path):
        edges = tmp_path / "g.tsv"
        write_edge_list(zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g"), edges)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", path=edges)
        edges.unlink()  # before the first build: every load raises FileNotFoundError
        server = make_server(registry, port=0, window_seconds=0.001)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        sockets = set()
        try:
            for route, document in (
                ("/v1/warm", {"graph": "g"}),
                ("/v1/update", {"graph": "g", "add": [["a", "1", "b"]]}),
            ):
                connection.request("POST", route, body=json.dumps(document))
                response = connection.getresponse()
                envelope = json.loads(response.read())
                assert response.status == 500, route
                assert envelope["code"] == "internal"
                assert "FileNotFoundError" in envelope["error"]
                assert envelope["request_id"]
                sockets.add(connection.sock)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            sockets.add(connection.sock)
            assert len(sockets) == 1  # one keep-alive connection throughout
        finally:
            connection.close()
            server.shutdown()
            server.close()
            thread.join(timeout=10)

    @pytest.mark.parametrize(
        ("fault", "status", "code"),
        [
            ({"point": "registry.build", "error": RuntimeError("boom")}, 500, "internal"),
            ({"point": "scheduler.worker", "delay": 0.5}, 504, "timeout"),
        ],
        ids=["internal", "timeout"],
    )
    def test_estimate_fault_rows(self, server, monkeypatch, fault, status, code):
        monkeypatch.setattr(serving_http, "REQUEST_TIMEOUT_SECONDS", 0.1)
        logged = logging.handlers.BufferingHandler(capacity=1000)
        logger = logging.getLogger("repro.serving")
        logger.addHandler(logged)
        try:
            with injector.armed(**fault, times=1):
                client = ServiceClient(_url(server), max_retries=0)
                with pytest.raises(ServiceRequestError) as excinfo:
                    client.estimate("g", ["1/2"])
        finally:
            logger.removeHandler(logged)
        assert excinfo.value.status == status
        assert excinfo.value.code == code
        assert excinfo.value.envelope["request_id"]
        # Only the 500 row logs, with the traceback.
        tracebacks = [record for record in logged.buffer if record.exc_info]
        assert len(tracebacks) == (1 if status == 500 else 0)
