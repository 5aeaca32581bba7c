"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table3"])
        assert args.name == "table3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestCommands:
    def test_datasets_lists_table3(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "moreno-health" in output
        assert "209068" in output  # DBpedia edge count from the paper

    def test_generate_catalog_estimate_round_trip(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        catalog_path = tmp_path / "catalog.npz"
        assert main(["generate", "moreno-health", "--scale", "0.02", "-o", str(graph_path)]) == 0
        assert graph_path.exists()
        assert main(["catalog", str(graph_path), "-k", "2", "-o", str(catalog_path)]) == 0
        assert catalog_path.exists()
        assert (
            main(
                [
                    "estimate",
                    str(catalog_path),
                    "1/2",
                    "--ordering",
                    "sum-based",
                    "--buckets",
                    "8",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "estimate" in output and "true" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "g.tsv", "-k", "2", "-o", "catalog.json"],
            ["estimate", "catalog.json", "1/2"],
        ],
    )
    def test_catalog_files_must_be_npz(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert ".npz" in capsys.readouterr().err

    def test_experiment_ordering_example(self, capsys):
        assert main(["experiment", "ordering-example"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Table 2" in output
        assert "sum-based" in output

    def test_experiment_table3_json(self, capsys):
        assert main(["experiment", "table3", "--scale", "0.02", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4

    def test_experiment_ablation_vopt(self, capsys):
        assert main(["experiment", "ablation-vopt"]) == 0
        assert "sse_ratio" in capsys.readouterr().out

    def test_experiment_figure1(self, capsys):
        assert main(["experiment", "figure1", "--scale", "0.02", "-k", "2"]) == 0
        assert "figure 1" in capsys.readouterr().out

    def test_experiment_table4_small(self, capsys):
        assert main(["experiment", "table4", "--scale", "0.02", "-k", "2"]) == 0
        output = capsys.readouterr().out
        assert "sum-based" in output and "slowdown" in output


class TestEngineCacheCommands:
    def _populate_cache(self, tmp_path):
        from repro.engine import ArtifactCache, EngineConfig, EstimationSession
        from repro.graph.generators import zipf_labeled_graph

        cache_dir = tmp_path / "cache"
        graph = zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7)
        EstimationSession.build(
            graph,
            EngineConfig(max_length=2, bucket_count=8),
            cache_dir=ArtifactCache(cache_dir),
        )
        return cache_dir

    def test_cache_list(self, tmp_path, capsys):
        cache_dir = self._populate_cache(tmp_path)
        assert main(["engine", "cache", "list", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "catalog-" in output and "total" in output

    def test_cache_list_json(self, tmp_path, capsys):
        cache_dir = self._populate_cache(tmp_path)
        assert (
            main(["engine", "cache", "list", "--cache-dir", str(cache_dir), "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["total_bytes"] > 0
        assert len(document["files"]) >= 3

    def test_cache_prune_requires_max_bytes(self, tmp_path):
        cache_dir = self._populate_cache(tmp_path)
        assert main(["engine", "cache", "prune", "--cache-dir", str(cache_dir)]) == 2

    def test_cache_prune_to_zero(self, tmp_path, capsys):
        cache_dir = self._populate_cache(tmp_path)
        assert (
            main(
                [
                    "engine",
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(cache_dir),
                    "--max-bytes",
                    "0",
                    "--json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["bytes_after"] == 0
        assert len(document["removed"]) >= 3

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = self._populate_cache(tmp_path)
        assert main(["engine", "cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out


class TestEngineUpdateCommand:
    def _write_inputs(self, tmp_path):
        from repro.graph.delta import GraphDelta, write_delta
        from repro.graph.generators import ring_labeled_graph
        from repro.graph.io import write_edge_list

        graph = ring_labeled_graph(6, 15, 60, seed=3, name="cli-ring")
        graph_path = tmp_path / "graph.tsv"
        write_edge_list(graph, graph_path)
        edges = list(graph.edges_with_label("3"))
        delta = GraphDelta(
            removals=[(str(e.source), e.label, str(e.target)) for e in edges[:5]]
        )
        delta_path = tmp_path / "churn.delta"
        write_delta(delta, delta_path)
        return graph_path, delta_path

    def test_update_patches_cache_and_reports(self, tmp_path, capsys):
        graph_path, delta_path = self._write_inputs(tmp_path)
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "engine", "build", str(graph_path),
                    "-k", "2", "--cache-dir", str(cache_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "engine", "update", str(graph_path),
                    "--delta", str(delta_path),
                    "-k", "2", "--cache-dir", str(cache_dir), "--json",
                ]
            )
            == 0
        )
        row = json.loads(capsys.readouterr().out)
        assert row["updated_from_delta"] is True
        assert row["delta_removals"] == 5
        assert 0 < row["delta_affected_subtrees"] <= row["delta_subtrees_total"]
        assert (cache_dir / f"catalog-{row['catalog_key']}.npz").exists()

    def test_update_writes_post_delta_graph(self, tmp_path, capsys):
        from repro.graph.io import read_edge_list

        graph_path, delta_path = self._write_inputs(tmp_path)
        output_path = tmp_path / "updated.tsv"
        assert (
            main(
                [
                    "engine", "update", str(graph_path),
                    "--delta", str(delta_path),
                    "-k", "2", "-o", str(output_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "delta applied" in output
        updated = read_edge_list(output_path)
        original = read_edge_list(graph_path)
        assert updated.edge_count == original.edge_count - 5

    def test_update_missing_delta_file_is_clean_error(self, tmp_path, capsys):
        graph_path, _ = self._write_inputs(tmp_path)
        assert (
            main(
                [
                    "engine", "update", str(graph_path),
                    "--delta", str(tmp_path / "nope.delta"), "-k", "2",
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err


class TestServeClientParsing:
    def test_serve_requires_a_graph(self, capsys):
        assert main(["serve"]) == 2
        assert "--graph" in capsys.readouterr().err

    def test_serve_rejects_malformed_graph_spec(self, capsys):
        assert main(["serve", "--graph", "no-equals-sign"]) == 2
        assert "NAME=EDGE_LIST" in capsys.readouterr().err

    def test_client_estimate_requires_graph(self, capsys):
        assert main(["client", "estimate", "1/2"]) == 2
        assert "--graph" in capsys.readouterr().err

    def test_client_estimate_requires_paths(self, capsys):
        assert (
            main(["client", "estimate", "--graph", "g", "--url", "http://127.0.0.1:1"])
            == 2
        )
        assert "no paths" in capsys.readouterr().err

    def test_client_unreachable_server_is_a_clean_error(self, capsys):
        assert main(["client", "healthz", "--url", "http://127.0.0.1:9"]) == 1
        assert "error" in capsys.readouterr().err


class TestSharedEngineFlagBlock:
    """``add_engine_options`` installs one flag vocabulary everywhere."""

    def test_engine_surfaces_share_the_estimation_block(self):
        parser = build_parser()
        for argv in (
            ["engine", "build", "g.tsv"],
            ["serve", "--graph", "g=g.tsv"],
        ):
            args = parser.parse_args(argv)
            assert args.max_length == 3
            assert args.ordering == "sum-based"
            assert args.buckets == 64
            assert args.histogram == "v-optimal"

    def test_catalog_carries_construction_flags_only(self):
        args = build_parser().parse_args(["catalog", "g.tsv", "-o", "c.npz", "-k", "4"])
        assert args.max_length == 4
        assert not hasattr(args, "ordering")
        assert not hasattr(args, "buckets")

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "g.tsv", "-o", "c.npz", "--workers", "2"],
            ["catalog", "g.tsv", "-o", "c.npz", "--backend", "matrix"],
            ["engine", "build", "g.tsv", "--workers", "2"],
            ["serve", "--graph", "g=g.tsv", "--build-workers", "2"],
            ["serve", "--graph", "g=g.tsv", "--backend", "serial"],
            ["catalog", "g.tsv", "-o", "c.npz", "--storage", "sparse"],
            ["engine", "build", "g.tsv", "--storage", "dense"],
            ["serve", "--graph", "g=g.tsv", "--storage", "auto"],
            ["serve", "--graph", "g=g.tsv", "--verbose"],
            ["artifact-server", "--dir", "store", "--verbose"],
        ],
    )
    def test_catalog_builder_takes_no_backend_or_worker_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_rejects_zero_workers(self, capsys):
        assert main(["serve", "--graph", "g=missing.tsv", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_from_args_mirrors_the_block(self):
        from repro.engine import EngineConfig

        args = build_parser().parse_args(
            [
                "engine", "build", "g.tsv",
                "-k", "5", "--ordering", "sum-based",
                "--histogram", "equi-width", "--buckets", "16",
            ]
        )
        config = EngineConfig.from_args(args)
        assert config.max_length == 5
        assert config.histogram_kind == "equi-width"
        assert config.bucket_count == 16

    def test_from_args_overrides_win(self):
        from repro.engine import EngineConfig

        args = build_parser().parse_args(["engine", "build", "g.tsv", "-k", "5"])
        config = EngineConfig.from_args(args, max_length=2)
        assert config.max_length == 2

    def test_from_args_falls_back_to_defaults_off_surface(self):
        from repro.engine import EngineConfig

        args = build_parser().parse_args(
            ["catalog", "g.tsv", "-o", "c.npz", "-k", "4"]
        )
        config = EngineConfig.from_args(args)
        assert config.max_length == 4
        assert config.bucket_count == EngineConfig.bucket_count
        assert config.ordering == EngineConfig.ordering


class TestServeEndToEnd:
    def test_serve_and_client_round_trip(self, tmp_path, capsys):
        import threading

        from repro.engine import EngineConfig
        from repro.graph.generators import zipf_labeled_graph
        from repro.serving import SessionRegistry, make_server

        registry = SessionRegistry(
            default_config=EngineConfig(max_length=2, bucket_count=8)
        )
        registry.register(
            "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7)
        )
        server = make_server(registry, port=0, window_seconds=0.005)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            assert main(["client", "healthz", "--url", url]) == 0
            assert main(["client", "warm", "--graph", "g", "--url", url]) == 0
            assert (
                main(["client", "estimate", "1/2", "2", "--graph", "g", "--url", url])
                == 0
            )
            output = capsys.readouterr().out
            assert "1/2" in output
            assert main(["client", "stats", "--url", url]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["scheduler"]["requests_total"] >= 1
        finally:
            server.shutdown()
            server.close()
            thread.join(timeout=10)


class TestRemoteCacheCommands:
    @pytest.fixture()
    def artifact_server(self, tmp_path):
        import threading

        from repro.obs.metrics import MetricsRegistry
        from repro.serving.artifacts import make_artifact_server

        server = make_artifact_server(
            tmp_path / "remote-store", port=0, metrics=MetricsRegistry()
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def _build_remote(self, tmp_path, url, cache_name="cacheA"):
        from repro.engine import ArtifactCache, EngineConfig, EstimationSession
        from repro.engine.remote import RemoteArtifactStore
        from repro.graph.generators import zipf_labeled_graph

        cache = ArtifactCache(
            tmp_path / cache_name, remote=RemoteArtifactStore(url)
        )
        EstimationSession.build(
            zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7),
            EngineConfig(max_length=2, bucket_count=8),
            cache_dir=cache,
        )
        cache.remote.flush(timeout=30)
        return tmp_path / cache_name

    def test_dead_remote_is_a_clean_error(self, tmp_path, capsys):
        assert (
            main(
                [
                    "engine",
                    "cache",
                    "list",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--remote",
                    "http://127.0.0.1:9",
                ]
            )
            == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_cache_list_remote_presence_audit(self, tmp_path, capsys, artifact_server):
        cache_dir = self._build_remote(tmp_path, artifact_server)
        assert (
            main(
                [
                    "engine",
                    "cache",
                    "list",
                    "--cache-dir",
                    str(cache_dir),
                    "--remote",
                    artifact_server,
                    "--json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["remote_url"].startswith("http://")
        presences = {row["presence"] for row in document["files"]}
        # Primaries were pushed; mmap sidecars (if any) stay local-only.
        assert "both" in presences
        assert presences <= {"both", "local", "remote"}

    def test_cache_list_remote_only_artifact_is_reported(
        self, tmp_path, capsys, artifact_server
    ):
        self._build_remote(tmp_path, artifact_server)
        empty = tmp_path / "empty-cache"
        empty.mkdir()
        assert (
            main(
                [
                    "engine",
                    "cache",
                    "list",
                    "--cache-dir",
                    str(empty),
                    "--remote",
                    artifact_server,
                    "--json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["files"]
        assert {row["presence"] for row in document["files"]} == {"remote"}

    def test_build_warm_starts_from_remote(self, tmp_path, capsys, artifact_server):
        self._build_remote(tmp_path, artifact_server)
        graph_path = tmp_path / "graph.tsv"
        assert (
            main(
                [
                    "generate",
                    "moreno-health",
                    "--scale",
                    "0.02",
                    "-o",
                    str(graph_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "engine",
                    "build",
                    str(graph_path),
                    "-k",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "fresh"),
                    "--remote-cache",
                    artifact_server,
                    "--json",
                ]
            )
            == 0
        )
        first = json.loads(capsys.readouterr().out)
        assert first["catalog_from_cache"] is False  # different graph: cold
        assert (
            main(
                [
                    "engine",
                    "build",
                    str(graph_path),
                    "-k",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "fresh2"),
                    "--remote-cache",
                    artifact_server,
                    "--json",
                ]
            )
            == 0
        )
        second = json.loads(capsys.readouterr().out)
        assert second["catalog_from_cache"] is True  # warm via the remote tier

    def test_remote_cache_without_cache_dir_is_an_error(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        assert (
            main(
                [
                    "generate",
                    "moreno-health",
                    "--scale",
                    "0.02",
                    "-o",
                    str(graph_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "engine",
                    "build",
                    str(graph_path),
                    "-k",
                    "2",
                    "--remote-cache",
                    "http://127.0.0.1:9",
                ]
            )
            == 1
        )
        assert "--cache-dir" in capsys.readouterr().err


class TestImportCost:
    def test_cli_import_leaves_networkx_unloaded(self):
        # networkx backs only the Barabasi-Albert generator; every repro
        # process importing it at start-up paid for it on each launch.
        env = dict(os.environ)
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source_root, env.get("PYTHONPATH")) if part
        )
        result = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('networkx' in sys.modules)"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "False"
