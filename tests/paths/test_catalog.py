"""Tests for the selectivity catalog."""

from __future__ import annotations

import pytest

from repro.exceptions import PathError, UnknownLabelError
from repro.paths.catalog import SelectivityCatalog
from repro.paths.evaluation import path_selectivity
from repro.paths.label_path import LabelPath


class TestConstruction:
    def test_from_graph_matches_direct_evaluation(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        assert catalog.selectivity("x") == 3
        assert catalog.selectivity("x/y") == path_selectivity(triangle_graph, "x/y")
        assert catalog.graph_name == "triangle"
        assert catalog.max_length == 2
        assert catalog.labels == ("x", "y", "z")

    def test_domain_size(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        assert catalog.domain_size == 12
        assert len(catalog) == 12

    def test_explicit_construction_validates(self):
        with pytest.raises(PathError):
            SelectivityCatalog(["a"], 0, {})
        with pytest.raises(PathError):
            SelectivityCatalog([], 2, {})
        with pytest.raises(PathError):
            SelectivityCatalog(["a"], 1, {LabelPath.parse("a/a"): 1})
        with pytest.raises(UnknownLabelError):
            SelectivityCatalog(["a"], 2, {LabelPath.parse("b"): 1})
        with pytest.raises(PathError):
            SelectivityCatalog(["a"], 1, {LabelPath.parse("a"): -1})

    def test_string_keys_accepted(self):
        catalog = SelectivityCatalog(["a", "b"], 2, {"a": 3, "a/b": 1})
        assert catalog.selectivity("a") == 3
        assert catalog.selectivity(LabelPath.parse("a/b")) == 1


class TestLookups:
    def test_missing_path_is_zero(self):
        catalog = SelectivityCatalog(["a", "b"], 2, {"a": 3})
        assert catalog.selectivity("b/b") == 0

    def test_too_long_path_raises(self):
        catalog = SelectivityCatalog(["a"], 1, {"a": 1})
        with pytest.raises(PathError):
            catalog.selectivity("a/a")

    def test_unknown_label_raises(self):
        catalog = SelectivityCatalog(["a"], 2, {"a": 1})
        with pytest.raises(UnknownLabelError):
            catalog.selectivity("z")

    def test_label_selectivities(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        assert catalog.label_selectivities() == {"x": 3, "y": 2, "z": 1}
        assert catalog.label_selectivity("y") == 2

    def test_nonzero_and_totals(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        nonzero = catalog.nonzero_paths()
        assert all(catalog.selectivity(path) > 0 for path in nonzero)
        assert catalog.total_selectivity() == sum(
            catalog.selectivity(path) for path in catalog.paths()
        )
        assert catalog.max_selectivity() == 3

    def test_contains(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        assert "x/y" in catalog
        assert 42 not in catalog


class TestRestrictAndPersistence:
    def test_restrict(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 3)
        restricted = catalog.restrict(2)
        assert restricted.max_length == 2
        assert restricted.domain_size == 12
        assert restricted.selectivity("x/y") == catalog.selectivity("x/y")

    def test_restrict_upwards_rejected(self, triangle_graph):
        catalog = SelectivityCatalog.from_graph(triangle_graph, 2)
        with pytest.raises(PathError):
            catalog.restrict(3)
