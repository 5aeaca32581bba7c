"""Differential oracle: every serving route answers like the paper surface.

One fixed path set per graph goes through each route an estimate can take
— a cold session, a warm one from a local cache, an mmap-warm one from
stored sidecars, a remote-warm one from an artifact server, a session after
``update(delta)``, ``/v1/estimate`` on a single-process server and on a
two-worker prefork server — and each route's float64 answers must equal,
byte for byte, those of ``PathSelectivityEstimator.build`` over a catalog
built cold from the same graph.

Two graphs sit on either side of the session's dense/sparse selection: a
small domain whose sessions keep a path → position table, and a large,
mostly-zero domain whose sessions rank every batch on demand.
"""

from __future__ import annotations

import os
import random
import threading
import time

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.engine.remote import RemoteArtifactStore
from repro.estimation.estimator import PathSelectivityEstimator
from repro.exceptions import ServingError
from repro.graph.delta import GraphDelta
from repro.graph.generators import zipf_labeled_graph
from repro.obs.metrics import MetricsRegistry
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import enumerate_label_paths
from repro.paths.label_path import LabelPath
from repro.serving import ServiceClient, SessionRegistry, make_server
from repro.serving.artifacts import make_artifact_server
from repro.serving.prefork import PreforkServer

#: name -> (graph factory arguments, engine config, whether sessions rank
#: on demand).  "small": 4 labels, k=4, 340 paths — the table side.
#: "large": 16 labels, k=3, 4,368 paths, a few percent nonzero — the
#: on-demand side.
CASES = {
    "small": (
        {"vertex_count": 100, "edge_count": 150, "label_count": 4, "seed": 3},
        EngineConfig(max_length=4, bucket_count=24),
        False,
    ),
    "large": (
        {"vertex_count": 400, "edge_count": 300, "label_count": 16, "seed": 5},
        EngineConfig(max_length=3, bucket_count=48),
        True,
    ),
}

#: Seeded sample size for the large graph (the small one uses its domain).
SAMPLE_PATHS = 1_200

fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="pre-fork serving requires os.fork")


def _graph(name: str):
    arguments, _, _ = CASES[name]
    return zipf_labeled_graph(skew=1.2, name=name, **arguments)


def _delta(graph) -> GraphDelta:
    """Two removals and two additions that keep the label alphabet."""
    rng = random.Random(17)
    edges = sorted(graph.edges())
    removed = rng.sample([edge for edge in edges if graph.label_edge_count(edge.label) > 2], 2)
    vertices = sorted(graph.vertices())
    labels = sorted(graph.labels())
    present = set(edges)
    added = []
    while len(added) < 2:
        triple = (rng.choice(vertices), rng.choice(labels), rng.choice(vertices))
        if triple not in present and triple not in added:
            added.append(triple)
    return GraphDelta(additions=added, removals=[tuple(edge) for edge in removed])


def _paths(name: str, graph, config: EngineConfig) -> list:
    """The route inputs: every length, zero paths, three spellings."""
    domain = list(enumerate_label_paths(graph.labels(), config.max_length))
    if name == "large":
        rng = random.Random(23)
        catalog = SelectivityCatalog.from_graph(graph, config.max_length)
        nonzero = catalog.nonzero_paths()
        picked = rng.sample(domain, SAMPLE_PATHS // 2)
        picked += [rng.choice(nonzero) for _ in range(SAMPLE_PATHS // 2)]
        domain = picked
    out: list = []
    for position, path in enumerate(domain):
        spelling = position % 3
        if spelling == 0:
            out.append(str(path))
        elif spelling == 1:
            out.append(path)
        else:
            out.append(f"  {path}\t")
    return out


def _wire(paths) -> list[str]:
    return [str(path) if isinstance(path, LabelPath) else path for path in paths]


def _reference(graph, config: EngineConfig, paths) -> bytes:
    estimator = PathSelectivityEstimator.build(
        SelectivityCatalog.from_graph(graph, config.max_length),
        ordering=config.ordering,
        histogram_kind=config.histogram_kind,
        bucket_count=config.bucket_count,
    )
    answers = estimator.estimate_batch(paths)
    assert answers.dtype == np.float64
    return answers.tobytes()


def _bytes(values) -> bytes:
    answers = np.asarray(values, dtype=np.float64)
    return answers.tobytes()


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    name = request.param
    _, config, lazy = CASES[name]
    graph = _graph(name)
    paths = _paths(name, graph, config)
    return {
        "name": name,
        "graph": graph,
        "config": config,
        "lazy": lazy,
        "paths": paths,
        "expected": _reference(graph, config, paths),
    }


def _session_side(session: EstimationSession, case) -> None:
    assert bool(session.stats.extra.get("lazy_positions")) is case["lazy"]


class TestCoverage:
    def test_paths_cover_every_length_and_zeros(self, case):
        config = case["config"]
        catalog = SelectivityCatalog.from_graph(case["graph"], config.max_length)
        lengths = {LabelPath.parse(path).length for path in case["paths"]}
        assert lengths == set(range(1, config.max_length + 1))
        truths = [catalog.selectivity(path) for path in case["paths"]]
        assert 0 in truths and max(truths) > 0
        if case["name"] == "large":
            assert len(case["paths"]) >= 1_000
        else:
            assert len(case["paths"]) == catalog.domain_size


class TestSessionRoutes:
    def test_cold(self, case):
        session = EstimationSession.build(case["graph"], case["config"])
        _session_side(session, case)
        assert _bytes(session.estimate_batch(case["paths"])) == case["expected"]

    def test_local_warm(self, case, tmp_path):
        EstimationSession.build(case["graph"], case["config"], cache_dir=tmp_path)
        warm = EstimationSession.build(case["graph"], case["config"], cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache and warm.stats.histogram_from_cache
        _session_side(warm, case)
        assert _bytes(warm.estimate_batch(case["paths"])) == case["expected"]

    def test_mmap_warm(self, case, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = EstimationSession.build(case["graph"], case["config"], cache_dir=cache)
        cache.store_catalog(cold.stats.catalog_key, cold.catalog, mmap_sidecar=True)
        warm = EstimationSession.build(
            case["graph"], case["config"], cache_dir=ArtifactCache(tmp_path), mmap=True
        )
        assert warm.catalog.mmap_backed
        _session_side(warm, case)
        assert _bytes(warm.estimate_batch(case["paths"])) == case["expected"]

    def test_remote_warm(self, case, tmp_path):
        server = make_artifact_server(tmp_path / "store", port=0, metrics=MetricsRegistry())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            builder = ArtifactCache(tmp_path / "a", remote=RemoteArtifactStore(url))
            EstimationSession.build(case["graph"], case["config"], cache_dir=builder)
            builder.remote.flush(timeout=10)
            fresh = ArtifactCache(tmp_path / "b", remote=RemoteArtifactStore(url))
            warm = EstimationSession.build(case["graph"], case["config"], cache_dir=fresh)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert warm.stats.catalog_from_cache and fresh.remote_hits >= 1
        _session_side(warm, case)
        assert _bytes(warm.estimate_batch(case["paths"])) == case["expected"]

    def test_after_delta(self, case, tmp_path):
        graph = case["graph"].copy()
        session = EstimationSession.build(graph, case["config"], cache_dir=tmp_path)
        delta = _delta(graph)
        updated = session.update(delta)
        assert not updated.stats.extra["delta_full_rebuild"]
        post = case["graph"].copy()
        delta.apply(post)
        _session_side(updated, case)
        expected = _reference(post, case["config"], case["paths"])
        assert _bytes(updated.estimate_batch(case["paths"])) == expected


def _registry_factory(case):
    def factory():
        registry = SessionRegistry(default_config=case["config"])
        registry.register("g", graph=case["graph"].copy())
        return registry

    return factory


class TestHttpRoutes:
    def test_single_process_server(self, case):
        registry = _registry_factory(case)()
        server = make_server(registry, port=0, window_seconds=0.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
            answers = client.estimate("g", _wire(case["paths"]))
            _session_side(registry.get("g"), case)
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)
        assert _bytes(answers) == case["expected"]

    @fork_only
    def test_prefork_two_workers(self, case):
        prefork = PreforkServer(
            host="127.0.0.1",
            port=0,
            worker_count=2,
            registry_factory=_registry_factory(case),
            server_factory=lambda registry, sock: make_server(
                registry, window_seconds=0.0, inherited_socket=sock
            ),
            backoff_seconds=0.05,
            drain_seconds=10.0,
        )
        thread = threading.Thread(target=prefork.run, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{prefork.port}", timeout=30.0)
            deadline = time.perf_counter() + 30.0
            while True:
                try:
                    client.healthz()
                    break
                except ServingError:
                    assert time.perf_counter() < deadline, "prefork never ready"
                    time.sleep(0.05)
            wire = _wire(case["paths"])
            for _ in range(4):
                assert _bytes(client.estimate("g", wire)) == case["expected"]
        finally:
            prefork._draining = True
            prefork._terminate_children()
            thread.join(timeout=30)
        assert not thread.is_alive()
