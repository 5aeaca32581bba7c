"""Histogram domain ordering for path selectivity estimation.

A from-scratch Python reproduction of Yakovets et al., *Histogram Domain
Ordering for Path Selectivity Estimation*, EDBT 2018.  The package is split
into focused subpackages:

* :mod:`repro.graph` — edge-labeled graph storage, IO, generators, matrices;
* :mod:`repro.paths` — label paths, evaluation, enumeration, the catalog;
* :mod:`repro.ordering` — ranking rules, the num/lex/sum-based/ideal orderings;
* :mod:`repro.histogram` — equi-width/equi-depth/MaxDiff/end-biased/V-optimal;
* :mod:`repro.estimation` — estimators, error metrics, workloads, sweeps;
* :mod:`repro.optimizer` — a path-query planner consuming the estimates;
* :mod:`repro.engine` — the batched estimation engine with artifact caching;
* :mod:`repro.serving` — the concurrent estimation service (session
  registry, micro-batching scheduler, HTTP server and client);
* :mod:`repro.datasets` — Table 3 dataset stand-ins;
* :mod:`repro.experiments` — the per-table/per-figure harnesses.

The paper surface — graph to catalog to ordering to histogram to
estimate — and the engine are re-exported here.  The serving stack is not:
import it from :mod:`repro.serving`, so that library users and the
non-serving CLI commands do not load the HTTP machinery.
"""

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.estimation.errors import error_rate, mean_error_rate, q_error
from repro.estimation.estimator import ExactOracle, PathSelectivityEstimator
from repro.estimation.evaluation import run_sweep
from repro.exceptions import ReproError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import Edge, LabeledDiGraph
from repro.histogram.builder import (
    HISTOGRAM_KINDS,
    LabelPathHistogram,
    build_histogram,
    domain_frequencies,
)
from repro.histogram.vopt import VOptimalHistogram
from repro.ordering.base import Ordering
from repro.ordering.ranking import AlphabeticalRanking, CardinalityRanking
from repro.ordering.registry import (
    PAPER_ORDERINGS,
    available_orderings,
    make_ordering,
    make_paper_orderings,
)
from repro.ordering.sum_based import SumBasedOrdering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.label_path import LabelPath

__version__ = "1.0.0"

__all__ = [
    "HISTOGRAM_KINDS",
    "PAPER_ORDERINGS",
    "AlphabeticalRanking",
    "ArtifactCache",
    "CardinalityRanking",
    "Edge",
    "EngineConfig",
    "EstimationSession",
    "ExactOracle",
    "GraphDelta",
    "LabelPath",
    "LabelPathHistogram",
    "LabeledDiGraph",
    "Ordering",
    "PathSelectivityEstimator",
    "ReproError",
    "SelectivityCatalog",
    "SumBasedOrdering",
    "VOptimalHistogram",
    "__version__",
    "available_orderings",
    "build_histogram",
    "domain_frequencies",
    "error_rate",
    "make_ordering",
    "make_paper_orderings",
    "mean_error_rate",
    "q_error",
    "run_sweep",
]
