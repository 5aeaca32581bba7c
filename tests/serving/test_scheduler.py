"""Tests for the micro-batching scheduler (coalescing + backpressure)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import EngineConfig
from repro.exceptions import (
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownGraphError,
)
from repro.graph.generators import zipf_labeled_graph
from repro.paths.enumeration import enumerate_label_paths
from repro.serving import EstimateScheduler, SessionRegistry

CONFIG = EngineConfig(max_length=2, bucket_count=8)


@pytest.fixture()
def registry():
    registry = SessionRegistry(default_config=CONFIG)
    registry.register(
        "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g")
    )
    return registry


class TestCoalescing:
    def test_results_equal_direct_estimate_batch(self, registry):
        session = registry.get("g")
        domain = [str(path) for path in enumerate_label_paths(session.catalog.labels, 2)]
        with EstimateScheduler(registry, window_seconds=0.05) as scheduler:
            futures = [scheduler.submit_many("g", [path]) for path in domain]
            got = [future.result(timeout=10)[0] for future in futures]
        expected = session.estimate_batch(domain)
        assert np.allclose(got, expected)
        snapshot = scheduler.stats.snapshot()
        assert snapshot["batch_requests_total"] == len(domain)
        # A generous window coalesces the burst into far fewer batches than
        # requests — that is the whole point of the scheduler.
        assert snapshot["batches_total"] < len(domain) / 2
        assert snapshot["mean_coalesced_requests"] > 2

    def test_submit_many_is_one_request(self, registry):
        session = registry.get("g")
        paths = ["1/2", "2", "3/3", "1"]
        with EstimateScheduler(registry, window_seconds=0.0) as scheduler:
            result = scheduler.submit_many("g", paths).result(timeout=10)
        assert result == [float(v) for v in session.estimate_batch(paths)]
        assert scheduler.stats.snapshot()["requests_total"] == 1

    def test_mixed_graphs_in_one_window_group_by_session(self, registry):
        registry.register(
            "h", graph=zipf_labeled_graph(25, 80, 3, skew=0.5, seed=11, name="h")
        )
        expected_g = registry.get("g").estimate_batch(["1/2", "2"])
        expected_h = registry.get("h").estimate_batch(["1/2", "2"])
        with EstimateScheduler(registry, window_seconds=0.05) as scheduler:
            futures = [
                scheduler.submit_many("g", ["1/2"]),
                scheduler.submit_many("h", ["1/2"]),
                scheduler.submit_many("g", ["2"]),
                scheduler.submit_many("h", ["2"]),
            ]
            got = [future.result(timeout=10)[0] for future in futures]
        assert got[0] == pytest.approx(expected_g[0])
        assert got[2] == pytest.approx(expected_g[1])
        assert got[1] == pytest.approx(expected_h[0])
        assert got[3] == pytest.approx(expected_h[1])

    def test_max_batch_paths_splits_bursts(self, registry):
        registry.get("g")
        with EstimateScheduler(
            registry, window_seconds=0.05, max_batch_paths=4
        ) as scheduler:
            futures = [scheduler.submit_many("g", ["1/2"]) for _ in range(16)]
            for future in futures:
                future.result(timeout=10)
        snapshot = scheduler.stats.snapshot()
        assert snapshot["batches_total"] >= 4
        assert snapshot["batch_paths_max"] <= 4


class TestErrorIsolation:
    def test_unknown_graph_fails_only_its_requests(self, registry):
        expected = registry.get("g").estimate("1/2")
        with EstimateScheduler(registry, window_seconds=0.05) as scheduler:
            good = scheduler.submit_many("g", ["1/2"])
            bad = scheduler.submit_many("missing", ["1/2"])
            assert good.result(timeout=10)[0] == pytest.approx(expected)
            with pytest.raises(UnknownGraphError):
                bad.result(timeout=10)

    def test_invalid_path_fails_only_its_request(self, registry):
        expected = registry.get("g").estimate("1/2")
        with EstimateScheduler(registry, window_seconds=0.05) as scheduler:
            good = scheduler.submit_many("g", ["1/2"])
            bad = scheduler.submit_many("g", ["99/77"])
            assert good.result(timeout=10)[0] == pytest.approx(expected)
            with pytest.raises(KeyError):
                bad.result(timeout=10)
        assert scheduler.stats.snapshot()["errors_total"] == 1


class TestBackpressure:
    def test_full_queue_raises_service_overloaded(self):
        release = threading.Event()
        started = threading.Event()
        graph = zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="slow")

        def slow_loader():
            started.set()
            release.wait(timeout=30)
            return graph

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("slow", loader=slow_loader)
        scheduler = EstimateScheduler(
            registry, window_seconds=0.0, max_pending=4
        )
        try:
            # The worker dequeues this request and blocks inside the build...
            blocked = scheduler.submit_many("slow", ["1/2"])
            assert started.wait(timeout=10)
            # ...so these fill the bounded queue...
            queued = [scheduler.submit_many("slow", ["1/2"]) for _ in range(4)]
            # ...and the next submission is rejected, not buffered.
            with pytest.raises(ServiceOverloadedError):
                scheduler.submit_many("slow", ["1/2"])
            assert scheduler.stats.snapshot()["rejected_total"] == 1
            release.set()
            for future in [blocked, *queued]:
                assert future.result(timeout=30)[0] >= 0.0
        finally:
            release.set()
            scheduler.close()

    def test_submit_after_close_raises(self, registry):
        scheduler = EstimateScheduler(registry, window_seconds=0.0)
        scheduler.close()
        with pytest.raises(ServiceClosedError):
            scheduler.submit_many("g", ["1/2"])

    def test_close_drains_queued_work(self, registry):
        registry.get("g")
        scheduler = EstimateScheduler(registry, window_seconds=0.2)
        futures = [scheduler.submit_many("g", ["1/2"]) for _ in range(8)]
        scheduler.close(timeout=30)
        for future in futures:
            assert future.result(timeout=0.1)[0] >= 0.0


class TestStats:
    def test_latency_counters_populate(self, registry):
        registry.get("g")
        with EstimateScheduler(registry, window_seconds=0.01) as scheduler:
            futures = [scheduler.submit_many("g", ["1/2"]) for _ in range(8)]
            for future in futures:
                future.result(timeout=10)
            time.sleep(0.01)
        snapshot = scheduler.stats.snapshot()
        assert snapshot["paths_total"] == 8
        assert snapshot["batch_seconds_total"] > 0
        assert snapshot["wait_seconds_max"] >= 0
        assert snapshot["paths_per_second"] > 0
        assert snapshot["uptime_seconds"] > 0


class TestCloseRace:
    def test_requests_stranded_behind_the_sentinel_are_failed(self):
        release = threading.Event()
        graph = zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="slow")

        def slow_loader():
            release.wait(timeout=30)
            return graph

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("slow", loader=slow_loader)
        scheduler = EstimateScheduler(registry, window_seconds=0.0)
        # The worker dequeues the first request and blocks in the build;
        # the next two sit in the queue when close() gives up joining.
        in_flight = scheduler.submit_many("slow", ["1/2"])
        time.sleep(0.05)
        stranded = [scheduler.submit_many("slow", ["1/2"]) for _ in range(2)]
        scheduler.close(timeout=0.2)
        for future in stranded:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=5)
        # The in-flight request still completes once the build unblocks.
        release.set()
        assert in_flight.result(timeout=30)[0] >= 0.0
