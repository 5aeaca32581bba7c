"""Shared fixtures for the test-suite.

The fixtures provide a ladder of graphs and catalogs:

* ``triangle_graph`` — a 4-vertex, hand-built graph whose path selectivities
  are easy to verify by hand;
* ``example_cardinalities`` — the paper's Section 3.4 worked-example numbers;
* ``small_graph`` / ``small_catalog`` — a deterministic 40-vertex random
  graph with 4 labels and its k=3 catalog, large enough to exercise the
  statistics but cheap enough for every test;
* ``moreno_tiny`` / ``moreno_tiny_catalog`` — a heavily scaled-down
  Moreno Health stand-in used by the experiment tests.

``oracle_vector`` is the catalog builder's reference on small domains: one
independent matrix chain per path, sharing no code with the kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from repro.datasets.registry import moreno_like
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import zipf_labeled_graph
from repro.graph.matrices import LabelMatrixStore
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import enumerate_label_paths


def _oracle_vector(
    graph: LabeledDiGraph, max_length: int, labels: Optional[Sequence[str]] = None
) -> np.ndarray:
    """``f`` over ``Lk`` in canonical order, one matrix chain per path.

    :meth:`LabelMatrixStore.path_selectivity` of every path of
    :func:`enumerate_label_paths` — no prefix sharing, stacking or pruning.
    """
    alphabet = sorted(labels) if labels is not None else graph.labels()
    store = LabelMatrixStore(graph, labels=alphabet)
    return np.array(
        [
            store.path_selectivity(path.labels)
            for path in enumerate_label_paths(alphabet, max_length)
        ],
        dtype=np.int64,
    )


@pytest.fixture(scope="session")
def oracle_vector():
    """The per-path reference builder: ``oracle_vector(graph, k, labels=None)``."""
    return _oracle_vector


@pytest.fixture()
def triangle_graph() -> LabeledDiGraph:
    """A tiny hand-checkable graph.

    Edges::

        a -x-> b, a -x-> c, b -y-> c, c -y-> d, b -x-> d, d -z-> a

    Useful truths: f(x) = 3, f(y) = 2, f(z) = 1, f(x/y) = |{(a,c),(a,d),(b,?)}|
    computed in the tests themselves.
    """
    graph = LabeledDiGraph(name="triangle")
    graph.add_edges_from(
        [
            ("a", "x", "b"),
            ("a", "x", "c"),
            ("b", "y", "c"),
            ("c", "y", "d"),
            ("b", "x", "d"),
            ("d", "z", "a"),
        ]
    )
    return graph


@pytest.fixture()
def example_cardinalities() -> dict[str, int]:
    """The paper's worked-example label cardinalities (Section 3.4)."""
    return {"1": 20, "2": 100, "3": 80}


@pytest.fixture(scope="session")
def small_graph() -> LabeledDiGraph:
    """A deterministic 40-vertex, 4-label random graph (session-scoped)."""
    return zipf_labeled_graph(40, 160, 4, skew=1.0, seed=3, name="small")


@pytest.fixture(scope="session")
def small_catalog(small_graph: LabeledDiGraph) -> SelectivityCatalog:
    """The k=3 selectivity catalog of ``small_graph`` (session-scoped)."""
    return SelectivityCatalog.from_graph(small_graph, 3)


@pytest.fixture(scope="session")
def moreno_tiny() -> LabeledDiGraph:
    """A heavily scaled-down Moreno Health stand-in (session-scoped)."""
    return moreno_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def moreno_tiny_catalog(moreno_tiny: LabeledDiGraph) -> SelectivityCatalog:
    """The k=3 catalog of the tiny Moreno stand-in (session-scoped)."""
    return SelectivityCatalog.from_graph(moreno_tiny, 3)
