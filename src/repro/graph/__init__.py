"""Graph substrate: storage, IO, generation, deltas, matrices and statistics."""

from repro.graph.delta import (
    GraphDelta,
    affected_first_labels,
    read_delta,
    write_delta,
)
from repro.graph.digraph import Edge, LabeledDiGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    correlated_label_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    ring_labeled_graph,
    zipf_labeled_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.matrices import LabelMatrixStore
from repro.graph.statistics import GraphSummary, summarize_graph

__all__ = [
    "Edge",
    "GraphDelta",
    "LabeledDiGraph",
    "LabelMatrixStore",
    "GraphSummary",
    "affected_first_labels",
    "barabasi_albert_graph",
    "correlated_label_graph",
    "erdos_renyi_graph",
    "forest_fire_graph",
    "read_delta",
    "read_edge_list",
    "ring_labeled_graph",
    "summarize_graph",
    "write_delta",
    "write_edge_list",
    "zipf_labeled_graph",
]
