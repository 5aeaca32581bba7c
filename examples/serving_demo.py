"""Example: the concurrent estimation service over HTTP.

Registers two graphs with a :class:`~repro.serving.SessionRegistry`, stands
up the HTTP endpoint and drives it with the stdlib
:class:`~repro.serving.ServiceClient` — the same round trip as
``repro serve`` / ``repro client``, in one process.  Concurrent clients'
point estimates coalesce into shared ``estimate_batch`` calls in the
scheduler, which the ``/v1/stats`` counters show.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.datasets.registry import load_dataset
from repro.engine import EngineConfig
from repro.graph.generators import zipf_labeled_graph
from repro.serving import ServiceClient, SessionRegistry, make_server


def http_demo(registry: SessionRegistry) -> None:
    print("== HTTP endpoint (the 'repro serve' surface) ==")
    server = make_server(registry, port=0, window_seconds=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        print(f"healthz -> {client.healthz()}")
        build = client.warm("moreno")
        print(f"moreno built: domain={build['domain_size']}")

        # Concurrent point estimates coalesce into one estimate_batch call.
        paths = ["1/2/3", "2/2", "1", "3/1/2", "2/1"]
        with ThreadPoolExecutor(max_workers=len(paths)) as pool:
            estimates = list(pool.map(lambda path: client.estimate("moreno", [path])[0], paths))
        for path, estimate in zip(paths, estimates):
            print(f"  e({path}) = {estimate:.2f}")

        # A second graph shares the same scheduler and registry budgets.
        bundle = client.estimate("zipf", ["1/2", "2", "3"])
        print(f"zipf bundle -> {[round(value, 2) for value in bundle]}")

        scheduler = client.stats()["scheduler"]
        print(
            f"scheduler: {scheduler['requests_total']} requests in "
            f"{scheduler['batches_total']} batches "
            f"(mean coalesced {scheduler['mean_coalesced_requests']:.1f} "
            f"requests/batch)"
        )
        for row in client.graphs():
            print(
                f"  graph {row['name']}: built={row['built']} "
                f"domain={row.get('domain_size', '-')}"
            )
        print(f"evicted moreno: {client.evict('moreno')}")
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        registry = SessionRegistry(
            cache_dir=cache_dir,
            max_sessions=8,
            default_config=EngineConfig(max_length=3, bucket_count=32),
        )
        registry.register("moreno", graph=load_dataset("moreno-health", scale=0.03, seed=3))
        registry.register(
            "zipf", graph=zipf_labeled_graph(60, 240, 4, skew=1.0, seed=9, name="zipf")
        )
        http_demo(registry)


if __name__ == "__main__":
    main()
