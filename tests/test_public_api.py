"""Tests for the public package surface (`repro` and its subpackages)."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest


class TestTopLevelExports:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_repro_leaves_the_serving_stack_unloaded(self):
        # Library users and the non-serving CLI commands pay for ``import
        # repro`` only, so it must not drag in the servers and their stdlib.
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in ('asyncio', 'http.server', 'repro.serving') "
            "if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.paths",
            "repro.ordering",
            "repro.histogram",
            "repro.estimation",
            "repro.optimizer",
            "repro.datasets",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_exception_hierarchy(self):
        from repro import ReproError
        from repro.exceptions import (
            GraphError,
            HistogramError,
            OrderingError,
            PathError,
        )

        for exc in (GraphError, PathError, OrderingError, HistogramError):
            assert issubclass(exc, ReproError)


class TestQuickstartSurface:
    def test_readme_flow(self, small_graph):
        """The exact flow advertised in the README quickstart."""
        from repro import (
            PathSelectivityEstimator,
            SelectivityCatalog,
            error_rate,
        )

        catalog = SelectivityCatalog.from_graph(small_graph, 2)
        estimator = PathSelectivityEstimator.build(
            catalog, ordering="sum-based", bucket_count=8
        )
        some_path = next(iter(catalog.nonzero_paths()))
        estimate = estimator.estimate(some_path)
        truth = catalog.selectivity(some_path)
        assert estimate >= 0
        assert -1.0 <= error_rate(estimate, truth) <= 1.0
