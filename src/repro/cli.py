"""Command-line interface.

``python -m repro`` (or the ``repro`` console script) exposes the dataset
generators, catalog builder and every experiment harness so the paper's
tables and figures can be regenerated without writing Python::

    repro datasets                          # Table 3
    repro generate moreno-health --scale 0.05 -o moreno.tsv
    repro catalog moreno.tsv -k 3 -o moreno.catalog.npz
    repro experiment table4 --scale 0.02 -k 3
    repro experiment figure2 --scale 0.01 -k 2 3
    repro estimate moreno.catalog.npz "1/2/3" --ordering sum-based --buckets 32
    repro engine build moreno.tsv -k 3 --cache-dir .repro-cache
    repro engine estimate moreno.tsv "1/2/3" "2/2" --cache-dir .repro-cache
    repro engine update moreno.tsv --delta churn.delta --cache-dir .repro-cache
    repro engine cache prune --cache-dir .repro-cache --max-bytes 100000000
    repro serve --graph moreno=moreno.tsv --port 8080 --cache-dir .repro-cache --workers 4
    repro client estimate --graph moreno "1/2/3" "2/2" --url http://127.0.0.1:8080

The engine-facing subcommands (``catalog``, ``engine *``, ``serve``) share
one flag block installed by :func:`add_engine_options`;
:meth:`repro.engine.EngineConfig.from_args` turns the resulting namespace
back into an :class:`~repro.engine.EngineConfig`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.datasets.registry import available_datasets, load_dataset
from repro.engine import EngineConfig, EstimationSession
from repro.estimation.estimator import PathSelectivityEstimator
from repro.experiments.ablation_histograms import run_histogram_ablation
from repro.experiments.ablation_vopt import run_vopt_ablation
from repro.experiments.extension_base_l2 import run_extension_base_l2
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.ordering_example import run_ordering_example
from repro.experiments.reporting import format_records
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.exceptions import ReproError
from repro.graph.io import read_edge_list, write_edge_list
from repro.paths.catalog import SelectivityCatalog

__all__ = ["main", "build_parser", "add_engine_options"]


def add_engine_options(
    parser: argparse.ArgumentParser, *, estimation: bool = True
) -> None:
    """Install the shared engine flag block on ``parser``.

    One definition of the ``-k/--max-length``, ``--ordering``, ``--buckets``,
    ``--histogram``, ``--cache-dir`` and ``--remote-cache``
    flags shared by ``repro catalog``, every ``repro engine`` subcommand and
    ``repro serve``, so defaults and help text cannot drift between them.
    :meth:`repro.engine.EngineConfig.from_args` consumes the resulting
    namespace.

    ``estimation=False`` (used by ``repro catalog``) skips the
    estimation-only flags (``--ordering``, ``--buckets``, ``--histogram``,
    ``--cache-dir``).
    """
    parser.add_argument("-k", "--max-length", type=int, default=3)
    if estimation:
        parser.add_argument("--ordering", default="sum-based")
        parser.add_argument("--buckets", type=int, default=64)
        parser.add_argument("--histogram", default="v-optimal")
        parser.add_argument(
            "--cache-dir",
            default=None,
            help="artifact cache directory (warm starts skip catalog construction)",
        )
    parser.add_argument(
        "--remote-cache",
        default=None,
        metavar="URL",
        help="shared artifact store ('repro artifact-server') consulted on "
        "local cache miss and pushed to after cold builds",
    )


def _npz_path(text: str) -> str:
    """An argparse type: a catalog file path, which must end in ``.npz``."""
    if not text.endswith(".npz"):
        raise argparse.ArgumentTypeError(
            f"catalogs are .npz archives; {text!r} does not end in .npz"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Histogram domain ordering for path selectivity estimation "
        "(EDBT 2018 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the paper's datasets (Table 3 specs)")

    generate = subparsers.add_parser("generate", help="generate a dataset stand-in")
    generate.add_argument("dataset", choices=available_datasets())
    generate.add_argument("--scale", type=float, default=0.05)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("-o", "--output", required=True, help="edge-list output path")

    catalog = subparsers.add_parser("catalog", help="build a selectivity catalog")
    catalog.add_argument("graph", help="edge-list file of the graph")
    catalog.add_argument(
        "-o", "--output", required=True, type=_npz_path, help="catalog output path (.npz)"
    )
    add_engine_options(catalog, estimation=False)

    estimate = subparsers.add_parser("estimate", help="estimate one path's selectivity")
    estimate.add_argument(
        "catalog", type=_npz_path, help="catalog .npz produced by 'repro catalog'"
    )
    estimate.add_argument("path", help="label path, e.g. 1/2/3")
    estimate.add_argument("--ordering", default="sum-based")
    estimate.add_argument("--buckets", type=int, default=32)
    estimate.add_argument("--histogram", default="v-optimal")

    engine = subparsers.add_parser(
        "engine", help="build / query a cached batched estimation session"
    )
    engine_commands = engine.add_subparsers(dest="engine_command", required=True)

    def _engine_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("graph", help="edge-list file of the graph")
        add_engine_options(sub)
        sub.add_argument("--json", action="store_true", help="emit JSON")

    engine_build = engine_commands.add_parser(
        "build", help="build the session artifacts (catalog, histogram, positions)"
    )
    _engine_common(engine_build)

    engine_update = engine_commands.add_parser(
        "update",
        help="apply an edge delta and rebuild only the affected catalog slices",
    )
    _engine_common(engine_update)
    engine_update.add_argument(
        "--delta",
        required=True,
        help="delta file: one '+|- source label target' line per edge change",
    )
    engine_update.add_argument(
        "-o",
        "--output",
        default=None,
        help="optionally write the post-delta graph back out as an edge list",
    )

    engine_estimate = engine_commands.add_parser(
        "estimate", help="batch-estimate label paths through a session"
    )
    _engine_common(engine_estimate)
    engine_estimate.add_argument(
        "paths", nargs="*", help="label paths, e.g. 1/2/3 (or use --paths-file)"
    )
    engine_estimate.add_argument(
        "--paths-file",
        default=None,
        help="file with one label path per line (blank lines ignored)",
    )
    engine_estimate.add_argument(
        "--truth", action="store_true", help="also print the true selectivities"
    )

    engine_cache = engine_commands.add_parser(
        "cache", help="inspect / prune a shared artifact cache directory"
    )
    engine_cache.add_argument(
        "cache_command", choices=("list", "prune", "clear"), help="maintenance action"
    )
    engine_cache.add_argument("--cache-dir", required=True)
    engine_cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte budget for 'prune' (least-recently-used artifacts go first)",
    )
    engine_cache.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="for 'list': also probe this artifact store and report per-file "
        "presence (local / remote / both)",
    )
    engine_cache.add_argument("--json", action="store_true", help="emit JSON")

    serve = subparsers.add_parser(
        "serve", help="run the concurrent estimation service (JSON over HTTP)"
    )
    serve.add_argument(
        "--graph",
        action="append",
        default=[],
        metavar="NAME=EDGE_LIST",
        help="register a graph under NAME (repeatable); built lazily on first use",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    add_engine_options(serve)
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="serving worker processes (default: os.cpu_count(); 1 serves "
        "in-process, >1 pre-forks workers sharing the listening socket)",
    )
    serve.add_argument(
        "--mmap", action="store_true", help="memory-map cached catalogs when possible"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="micro-batching coalescing window (milliseconds)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=512, help="path budget per coalesced batch"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="bounded-queue depth; beyond it requests get HTTP 503",
    )
    serve.add_argument(
        "--max-pending-per-graph",
        type=int,
        default=None,
        help="per-graph admission budget; beyond it requests get HTTP 429",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 2**20,
        help="request-body size cap; larger bodies get HTTP 413",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive build failures that open a graph's circuit "
        "(0 disables the breaker)",
    )
    serve.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        help="seconds an open circuit fast-fails before a half-open probe",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=None, help="LRU session-count budget"
    )
    serve.add_argument(
        "--max-bytes", type=int, default=None, help="LRU session byte budget"
    )
    serve.add_argument(
        "--prune-cache-bytes",
        type=int,
        default=None,
        help="prune the artifact cache to this many bytes after each build",
    )
    serve.add_argument(
        "--warm", action="store_true", help="build every registered graph before serving"
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines (one object per line) on stderr",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="log level for the 'repro' logger (default: info)",
    )

    artifact_server = subparsers.add_parser(
        "artifact-server",
        help="serve a directory of build artifacts to a fleet "
        "(the --remote-cache tier behind 'repro serve' / 'repro engine')",
    )
    artifact_server.add_argument(
        "--dir", required=True, help="artifact directory to serve (created if absent)"
    )
    artifact_server.add_argument("--host", default="127.0.0.1")
    artifact_server.add_argument("--port", type=int, default=8081)
    artifact_server.add_argument(
        "--max-body-bytes",
        type=int,
        default=256 * 2**20,
        help="PUT body size cap; larger uploads get HTTP 413",
    )

    client = subparsers.add_parser(
        "client", help="query a running 'repro serve' endpoint"
    )
    client.add_argument(
        "client_command",
        choices=("estimate", "warm", "evict", "update", "stats", "graphs", "healthz"),
    )
    client.add_argument("paths", nargs="*", help="label paths for 'estimate'")
    client.add_argument("--url", default="http://127.0.0.1:8080")
    client.add_argument("--graph", default=None, help="graph name on the server")
    client.add_argument(
        "--delta",
        default=None,
        help="delta file for 'update' ('+|- source label target' lines)",
    )
    client.add_argument(
        "--paths-file",
        default=None,
        help="file with one label path per line (blank lines ignored)",
    )
    client.add_argument("--timeout", type=float, default=30.0)
    client.add_argument(
        "--retries",
        type=int,
        default=3,
        help="retry budget for 429/503/504 and connection errors",
    )
    client.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="total seconds for the call, retries and pauses included",
    )
    client.add_argument("--json", action="store_true", help="emit JSON")
    client.add_argument(
        "--verbose",
        action="store_true",
        help="narrate each attempt (request id, status, latency) on stderr",
    )

    experiment = subparsers.add_parser("experiment", help="run an experiment harness")
    experiment.add_argument(
        "name",
        choices=(
            "ordering-example",
            "table3",
            "table4",
            "figure1",
            "figure2",
            "ablation-histograms",
            "ablation-vopt",
            "extension-l2",
        ),
    )
    experiment.add_argument("--scale", type=float, default=0.02)
    experiment.add_argument("-k", "--max-length", type=int, nargs="+", default=[3])
    experiment.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    return parser


def _print(records, as_json: bool) -> None:
    if as_json:
        print(json.dumps(records, indent=2, default=str))
    else:
        print(format_records(records))


def _run_experiment(args: argparse.Namespace) -> int:
    name = args.name
    k_values = list(args.max_length)
    if name == "ordering-example":
        example = run_ordering_example()
        print("Table 1 — summed ranks")
        _print(example.table1_rows(), args.json)
        print("\nTable 2 — orderings")
        _print(example.table2_rows(), args.json)
        return 0
    if name == "table3":
        rows = run_table3(scale=args.scale)
        _print([row.as_row() for row in rows], args.json)
        return 0
    if name == "table4":
        table4 = run_table4(scale=args.scale, max_length=k_values[0])
        if args.json:
            _print([result.as_row() for result in table4.results], True)
        else:
            print(table4.render())
            print(f"\nsum-based slowdown vs num-alph: {table4.slowdown_of():.2f}x")
        return 0
    if name == "figure1":
        figure1 = run_figure1(scale=args.scale, max_length=k_values[0])
        if args.json:
            print(json.dumps(figure1.as_series(), indent=2))
        else:
            print(
                f"figure 1: {figure1.dataset} k={figure1.max_length} "
                f"domain={figure1.domain_size} max f(l)={figure1.max_frequency:.0f} "
                f"buckets={figure1.bucket_count}"
            )
        return 0
    if name == "figure2":
        figure2 = run_figure2(scale=args.scale, max_lengths=k_values)
        if args.json:
            _print(figure2.records(), True)
        else:
            for dataset in sorted({r.dataset for r in figure2.results}):
                for k in k_values:
                    print(f"\n== {dataset}, k={k} ==")
                    print(figure2.render(dataset, k))
        return 0
    if name == "ablation-histograms":
        ablation = run_histogram_ablation(scale=args.scale, max_length=k_values[0])
        _print(ablation.records, args.json)
        return 0
    if name == "ablation-vopt":
        vopt = run_vopt_ablation()
        _print(vopt.records, args.json)
        return 0
    if name == "extension-l2":
        extension = run_extension_base_l2(scale=args.scale, max_length=k_values[0])
        _print(extension.records, args.json)
        return 0
    raise AssertionError(f"unhandled experiment {name!r}")  # pragma: no cover


def _resolve_cache(args: argparse.Namespace):
    """The artifact cache implied by ``--cache-dir``/``--remote-cache``.

    Returns ``None`` without either flag; a plain local
    :class:`~repro.engine.ArtifactCache` with only ``--cache-dir``; a
    remote-backed one with both.  ``--remote-cache`` alone is an error —
    the remote tier materialises artifacts *into* a local directory.
    """
    from repro.engine.cache import ArtifactCache

    remote_url = getattr(args, "remote_cache", None)
    if args.cache_dir is None:
        if remote_url:
            raise ReproError("--remote-cache requires --cache-dir")
        return None
    remote = None
    if remote_url:
        from repro.engine.remote import RemoteArtifactStore

        remote = RemoteArtifactStore(remote_url)
    return ArtifactCache(args.cache_dir, remote=remote)


def _build_session(args: argparse.Namespace) -> EstimationSession:
    graph = read_edge_list(args.graph)
    config = EngineConfig.from_args(args)
    return EstimationSession.build(graph, config, cache_dir=_resolve_cache(args))


def _run_engine_cache(args: argparse.Namespace) -> int:
    from repro.engine.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "list":
        rows = []
        for path in cache.artifact_files():
            stat = path.stat()
            rows.append({"file": path.name, "bytes": stat.st_size, "mtime": stat.st_mtime})
        if args.remote:
            # Audit surface: HEAD each local artifact against the store and
            # fold in remote-only names from its index, so one listing
            # answers "is the fleet's shared tier in sync with this cache?".
            from repro.engine.remote import RemoteArtifactStore

            store = RemoteArtifactStore(args.remote)
            for row in rows:
                row["presence"] = (
                    "both" if store.head_artifact(str(row["file"])) else "local"
                )
            local_names = {row["file"] for row in rows}
            for entry in store.list_artifacts():
                if entry.get("name") not in local_names:
                    rows.append(
                        {
                            "file": entry.get("name"),
                            "bytes": entry.get("bytes"),
                            "mtime": entry.get("mtime"),
                            "presence": "remote",
                        }
                    )
            rows.sort(key=lambda row: str(row["file"]))
        if args.json:
            document: dict[str, object] = {
                "files": rows,
                "total_bytes": cache.total_bytes(),
            }
            if args.remote:
                document["remote_url"] = args.remote
            print(json.dumps(document, indent=2))
        else:
            for row in rows:
                line = f"{row['bytes']:>12}  {row['file']}"
                if args.remote:
                    line += f"  [{row['presence']}]"
                print(line)
            print(f"{cache.total_bytes():>12}  total local bytes ({len(rows)} files)")
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None:
            print("error: prune requires --max-bytes", file=sys.stderr)
            return 2
        before = cache.total_bytes()
        removed = cache.prune(args.max_bytes)
        after = cache.total_bytes()
        if args.json:
            print(
                json.dumps(
                    {
                        "removed": [path.name for path in removed],
                        "bytes_before": before,
                        "bytes_after": after,
                        "max_bytes": args.max_bytes,
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"pruned {len(removed)} artifact(s): {before} -> {after} bytes "
                f"(budget {args.max_bytes})"
            )
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(json.dumps({"removed": removed}) if args.json else f"removed {removed} artifact(s)")
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command!r}"
    )  # pragma: no cover


def _run_serve(args: argparse.Namespace) -> int:
    from repro.engine import EngineConfig
    from repro.obs import configure_logging
    from repro.serving import SessionRegistry, make_server

    configure_logging(json_lines=args.log_json, level=args.log_level)
    if not args.graph:
        print("error: register at least one --graph NAME=EDGE_LIST", file=sys.stderr)
        return 2
    worker_count = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if worker_count < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.remote_cache and args.cache_dir is None:
        print("error: --remote-cache requires --cache-dir", file=sys.stderr)
        return 2
    config = EngineConfig.from_args(args)
    graphs: list[tuple[str, str]] = []
    for spec in args.graph:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            print(f"error: --graph expects NAME=EDGE_LIST, got {spec!r}", file=sys.stderr)
            return 2
        graphs.append((name, path))

    # Pre-fork workers serve cached catalogs through the sparse mmap
    # sidecar whenever a cache exists, so the big arrays are file-backed
    # pages every worker shares instead of N private copies.
    mmap = args.mmap or (worker_count > 1 and args.cache_dir is not None)

    def make_registry() -> SessionRegistry:
        registry = SessionRegistry(
            cache_dir=_resolve_cache(args),
            max_sessions=args.max_sessions,
            max_bytes=args.max_bytes,
            mmap=mmap,
            prune_cache_bytes=args.prune_cache_bytes,
            default_config=config,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_seconds=args.breaker_reset,
        )
        for name, path in graphs:
            registry.register(name, path=path)
        return registry

    def make_worker_server(registry, inherited_socket=None):
        return make_server(
            registry,
            host=args.host,
            port=args.port,
            window_seconds=args.window_ms / 1000.0,
            max_batch_paths=args.max_batch,
            max_pending=args.max_pending,
            max_pending_per_graph=args.max_pending_per_graph,
            max_body_bytes=args.max_body_bytes,
            inherited_socket=inherited_socket,
        )

    def warm_all(registry: SessionRegistry) -> None:
        for name, session in registry.warm().items():
            print(f"warmed {name}: domain={session.domain_size}", file=sys.stderr)

    if worker_count > 1:
        from repro.serving.prefork import PreforkServer

        prefork = PreforkServer(
            host=args.host,
            port=args.port,
            worker_count=worker_count,
            registry_factory=make_registry,
            server_factory=make_worker_server,
            # The parent builds (or cache-loads) every session once before
            # forking, so each worker's first request finds warm artifacts
            # instead of racing N identical builds.
            warm=(lambda: warm_all(make_registry())) if args.warm else None,
        )
        names = ", ".join(name for name, _ in graphs)
        print(
            f"serving {names} on http://{args.host}:{prefork.port} "
            f"with {worker_count} worker processes "
            f"(window {args.window_ms}ms, max batch {args.max_batch})",
            flush=True,
        )
        return prefork.run()

    registry = make_registry()
    if args.warm:
        warm_all(registry)
    server = make_worker_server(registry)
    host, port = server.server_address[:2]
    print(
        f"serving {', '.join(registry.names())} on http://{host}:{port} "
        f"(window {args.window_ms}ms, max batch {args.max_batch})",
        flush=True,
    )
    server.serve_until_signalled()
    print("drained; bye", file=sys.stderr, flush=True)
    return 0


def _run_catalog(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    remote = None
    remote_name = None
    if args.remote_cache:
        # Standalone catalog builds participate in the shared tier under
        # the same content-addressed key the engine cache would use, so a
        # fleet's 'repro serve --remote-cache' warm-starts from them.
        from repro.engine import config_digest, graph_digest
        from repro.engine.remote import RemoteArtifactStore

        remote = RemoteArtifactStore(args.remote_cache)
        config = EngineConfig.from_args(args)
        key = f"{graph_digest(graph)[:24]}-{config_digest(config.catalog_fields())}"
        remote_name = f"catalog-{key}.npz"
    catalog = None
    if remote is not None:
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="repro-catalog-") as scratch:
            target = Path(scratch) / str(remote_name)
            if remote.fetch(str(remote_name), target) == "hit":
                catalog = SelectivityCatalog.load_npz(target)
                print(f"catalog fetched from {remote.base_url} ({remote_name})")
    built = catalog is None
    if catalog is None:
        catalog = SelectivityCatalog.from_graph(graph, args.max_length)
    catalog.save_npz(args.output)
    if remote is not None and built:
        pushed = remote.push(args.output, name=str(remote_name))
        state = "pushed to" if pushed else "push failed for"
        print(f"{state} {remote.base_url} ({remote_name})")
    print(
        f"catalog with {len(catalog)} paths (k={args.max_length}, "
        f"|L|={len(catalog.labels)}, nnz={catalog.nnz}) written to {args.output}"
    )
    return 0


def _run_artifact_server(args: argparse.Namespace) -> int:
    from repro.serving.artifacts import make_artifact_server

    server = make_artifact_server(
        args.dir,
        host=args.host,
        port=args.port,
        max_body_bytes=args.max_body_bytes,
    )
    host, port = server.server_address[:2]
    print(f"serving artifacts from {args.dir} on http://{host}:{port}", flush=True)
    server.serve_until_signalled()
    print("artifact server stopped", file=sys.stderr, flush=True)
    return 0


def _run_client(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceRequestError
    from repro.serving import ServiceClient

    client = ServiceClient(
        args.url,
        timeout=args.timeout,
        max_retries=args.retries,
        deadline_seconds=args.deadline,
        verbose=args.verbose,
    )
    try:
        code = _run_client_command(args, client)
        if args.verbose and client.last_request_id:
            # Success path too: the id correlates this call with the
            # server's traces and logs even when nothing went wrong.
            print(
                f"request_id={client.last_request_id} "
                f"attempts={client.last_attempts}",
                file=sys.stderr,
            )
        return code
    except ServiceRequestError as exc:
        status = exc.status if exc.status is not None else "none"
        print(
            f"error: {exc}\n"
            f"  request_id={exc.request_id} attempts={exc.attempts} "
            f"status={status} code={exc.code or 'none'}",
            file=sys.stderr,
        )
        if args.verbose and client.last_attempt_seconds:
            latencies = " ".join(f"{s:.4f}" for s in client.last_attempt_seconds)
            print(f"  attempt_seconds: {latencies}", file=sys.stderr)
        return 1


def _run_client_command(args: argparse.Namespace, client) -> int:
    command = args.client_command
    if command == "estimate":
        if not args.graph:
            print("error: estimate requires --graph", file=sys.stderr)
            return 2
        paths = list(args.paths)
        if args.paths_file:
            with open(args.paths_file, "r", encoding="utf-8") as handle:
                paths.extend(line.strip() for line in handle if line.strip())
        if not paths:
            print("no paths given (positional arguments or --paths-file)", file=sys.stderr)
            return 2
        estimates = client.estimate(args.graph, paths)
        if args.json:
            print(
                json.dumps(
                    [
                        {"path": path, "estimate": estimate}
                        for path, estimate in zip(paths, estimates)
                    ],
                    indent=2,
                )
            )
        else:
            for path, estimate in zip(paths, estimates):
                print(f"{path}\t{estimate:.2f}")
        return 0
    if command == "warm":
        if not args.graph:
            print("error: warm requires --graph", file=sys.stderr)
            return 2
        stats = client.warm(args.graph)
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(
                f"warmed {args.graph}: domain={stats.get('domain_size')} "
                f"catalog_from_cache={stats.get('catalog_from_cache')}"
            )
        return 0
    if command == "evict":
        if not args.graph:
            print("error: evict requires --graph", file=sys.stderr)
            return 2
        evicted = client.evict(args.graph)
        print(json.dumps({"evicted": evicted}) if args.json else f"evicted: {evicted}")
        return 0
    if command == "update":
        from repro.graph.delta import read_delta

        if not args.graph or not args.delta:
            print("error: update requires --graph and --delta", file=sys.stderr)
            return 2
        delta = read_delta(args.delta)
        document = delta.to_dict()
        row = client.update(args.graph, add=document["add"], remove=document["remove"])
        if args.json:
            print(json.dumps(row, indent=2))
        elif row.get("built"):
            print(
                f"updated {args.graph}: +{row.get('additions')} "
                f"-{row.get('removals')} edges, affected subtrees "
                f"{row.get('affected_subtrees')}/{row.get('subtrees_total')}"
            )
        else:
            print(
                f"updated {args.graph}: +{row.get('additions')} "
                f"-{row.get('removals')} edges applied to the source graph "
                "(session not built yet; the next build sees the delta)"
            )
        return 0
    if command == "stats":
        print(json.dumps(client.stats(), indent=2))
        return 0
    if command == "graphs":
        print(json.dumps(client.graphs(), indent=2))
        return 0
    if command == "healthz":
        print(json.dumps(client.healthz(), indent=2))
        return 0
    raise AssertionError(f"unhandled client command {command!r}")  # pragma: no cover


def _run_engine_update(args: argparse.Namespace) -> int:
    from repro.graph.delta import read_delta
    from repro.graph.io import write_edge_list

    delta = read_delta(args.delta)
    session = _build_session(args)
    updated = session.update(delta)
    stats = updated.stats
    if args.output:
        write_edge_list(updated.graph, args.output)
    if args.json:
        print(json.dumps(stats.as_row(), indent=2))
    else:
        extra = stats.extra
        print(
            f"delta applied: +{extra.get('delta_additions', 0)} "
            f"-{extra.get('delta_removals', 0)} edges, "
            f"{extra.get('delta_affected_subtrees', 0)}/"
            f"{extra.get('delta_subtrees_total', 0)} first-label subtrees "
            f"{'rebuilt (full rebuild)' if extra.get('delta_full_rebuild') else 'recomputed'}"
        )
        print(
            f"catalog patched in {stats.catalog_seconds:.3f}s, "
            f"histogram rebuilt in {stats.histogram_seconds:.3f}s, "
            f"total {stats.total_seconds:.3f}s"
        )
        if args.cache_dir:
            print(f"artifacts keyed {stats.catalog_key} / {stats.histogram_key}")
        if args.output:
            print(f"post-delta graph written to {args.output}")
    return 0


def _run_engine(args: argparse.Namespace) -> int:
    if args.engine_command == "cache":
        return _run_engine_cache(args)
    if args.engine_command == "update":
        return _run_engine_update(args)
    session = _build_session(args)
    stats = session.stats
    if args.engine_command == "build":
        if args.json:
            print(json.dumps(stats.as_row(), indent=2))
        else:
            source = "cache" if stats.catalog_from_cache else "built"
            print(
                f"session ready: domain={session.domain_size} "
                f"method={session.histogram.method_name} "
                f"β={session.histogram.bucket_count}"
            )
            print(
                f"catalog {source} in {stats.catalog_seconds:.3f}s, "
                f"histogram {'cache' if stats.histogram_from_cache else 'built'} "
                f"in {stats.histogram_seconds:.3f}s, total {stats.total_seconds:.3f}s"
            )
            if args.cache_dir:
                print(f"artifacts keyed {stats.catalog_key} / {stats.histogram_key}")
        return 0
    if args.engine_command == "estimate":
        paths = list(args.paths)
        if args.paths_file:
            with open(args.paths_file, "r", encoding="utf-8") as handle:
                paths.extend(line.strip() for line in handle if line.strip())
        if not paths:
            print("no paths given (positional arguments or --paths-file)", file=sys.stderr)
            return 2
        estimates = session.estimate_batch(paths)
        if args.json:
            records = [
                {"path": path, "estimate": float(estimate)}
                for path, estimate in zip(paths, estimates)
            ]
            if args.truth:
                for record in records:
                    record["true"] = session.true_selectivity(str(record["path"]))
            print(json.dumps(records, indent=2))
        else:
            for path, estimate in zip(paths, estimates):
                line = f"{path}\t{estimate:.2f}"
                if args.truth:
                    line += f"\t(true {session.true_selectivity(path)})"
                print(line)
        return 0
    raise AssertionError(
        f"unhandled engine command {args.engine_command!r}"
    )  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        # Only the paper columns here: generating full-scale graphs just to
        # list them would be wasteful, so show the static specs instead.
        from repro.datasets.registry import PAPER_DATASETS

        print(format_records([spec.as_table_row() for spec in PAPER_DATASETS.values()]))
        return 0
    if args.command == "generate":
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        write_edge_list(graph, args.output)
        print(
            f"wrote {graph.edge_count} edges / {graph.vertex_count} vertices "
            f"({graph.label_count} labels) to {args.output}"
        )
        return 0
    if args.command == "catalog":
        return _run_catalog(args)
    if args.command == "estimate":
        catalog = SelectivityCatalog.load_npz(args.catalog)
        estimator = PathSelectivityEstimator.build(
            catalog,
            ordering=args.ordering,
            histogram_kind=args.histogram,
            bucket_count=args.buckets,
        )
        estimate = estimator.estimate(args.path)
        truth = catalog.selectivity(args.path)
        print(f"estimate e(ℓ) = {estimate:.2f}   true f(ℓ) = {truth}")
        return 0
    if args.command == "engine":
        return _run_engine(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "artifact-server":
        return _run_artifact_server(args)
    if args.command == "client":
        return _run_client(args)
    if args.command == "experiment":
        return _run_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
