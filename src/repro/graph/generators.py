"""Random graph generators used to build the experimental datasets.

The paper evaluates on two real datasets (Moreno Health, a DBpedia subgraph)
and two synthetic ones generated with the SNAP library (Erdős–Rényi and
Forest-Fire).  Real data cannot be shipped with this reproduction, so the
generators here produce graphs with the same *statistical structure*:

* :func:`erdos_renyi_graph` / :func:`forest_fire_graph` — the same generative
  models as the paper's SNAP-ER / SNAP-FF graphs, with uniformly random edge
  labels.
* :func:`zipf_labeled_graph` — random topology with Zipf-skewed label
  frequencies, the dominant feature of real edge-label distributions.
* :func:`correlated_label_graph` — the stand-in for the real datasets: label
  frequencies are skewed *and* the label chosen for an edge depends on the
  labels already incident to its source vertex, which induces the
  "edge-label cardinality correlations" the paper observes in real data.

All generators accept a ``seed`` and are fully deterministic for a given
seed, which the experiment harness relies on.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.exceptions import GraphError
from repro.graph.digraph import LabeledDiGraph

__all__ = [
    "default_labels",
    "erdos_renyi_graph",
    "forest_fire_graph",
    "barabasi_albert_graph",
    "ring_labeled_graph",
    "zipf_labeled_graph",
    "correlated_label_graph",
]


def default_labels(label_count: int) -> list[str]:
    """Return the canonical label alphabet ``["1", "2", ..., str(n)]``.

    The paper names labels ``1..|L|`` (see Figure 1), so the reproduction
    follows the same convention by default.
    """
    if label_count < 1:
        raise GraphError("label_count must be >= 1")
    return [str(i) for i in range(1, label_count + 1)]


def _zipf_weights(count: int, skew: float) -> list[float]:
    """Zipf-like weights ``1/r^skew`` for ranks ``r = 1..count`` (unnormalised)."""
    return [1.0 / (rank**skew) for rank in range(1, count + 1)]


def _label_edges(
    pairs: Sequence[tuple[int, int]],
    labels: Sequence[str],
    rng: random.Random,
    *,
    skew: float = 0.0,
) -> list[tuple[int, str, int]]:
    """Assign a label to every vertex pair.

    With ``skew == 0`` labels are uniform; otherwise label ``i`` is drawn with
    probability proportional to ``1 / i**skew``.
    """
    if skew > 0:
        weights = _zipf_weights(len(labels), skew)
        chosen = rng.choices(labels, weights=weights, k=len(pairs))
    else:
        chosen = [rng.choice(labels) for _ in pairs]
    return [(src, lab, dst) for (src, dst), lab in zip(pairs, chosen)]


def erdos_renyi_graph(
    vertex_count: int,
    edge_count: int,
    label_count: int,
    *,
    labels: Optional[Sequence[str]] = None,
    label_skew: float = 0.0,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> LabeledDiGraph:
    """Labeled Erdős–Rényi ``G(n, m)`` digraph (the paper's SNAP-ER stand-in).

    ``edge_count`` directed vertex pairs are sampled uniformly at random
    without replacement (self-loops allowed, parallel identical triples not),
    and each receives a label drawn uniformly (or Zipf-skewed when
    ``label_skew > 0``) from the alphabet.
    """
    if vertex_count < 1:
        raise GraphError("vertex_count must be >= 1")
    if edge_count < 0:
        raise GraphError("edge_count must be >= 0")
    rng = random.Random(seed)
    label_alphabet = list(labels) if labels is not None else default_labels(label_count)
    pairs: set[tuple[int, int]] = set()
    max_pairs = vertex_count * vertex_count
    target = min(edge_count, max_pairs)
    while len(pairs) < target:
        pairs.add((rng.randrange(vertex_count), rng.randrange(vertex_count)))
    graph = LabeledDiGraph(name=name)
    graph.add_vertices_from(range(vertex_count))
    graph.add_edges_from(
        _label_edges(sorted(pairs), label_alphabet, rng, skew=label_skew)
    )
    return graph


def forest_fire_graph(
    vertex_count: int,
    label_count: int,
    *,
    forward_probability: float = 0.37,
    backward_probability: float = 0.32,
    labels: Optional[Sequence[str]] = None,
    label_skew: float = 0.0,
    seed: int = 0,
    name: str = "forest-fire",
) -> LabeledDiGraph:
    """Labeled Forest-Fire graph (the paper's SNAP-FF stand-in).

    A simplified Leskovec-style forest-fire process: each new vertex picks an
    ambassador and "burns" through its out- and in-neighbourhood with
    geometric fan-out governed by ``forward_probability`` and
    ``backward_probability``.  Every burned vertex receives one edge from the
    new vertex.  Labels are then assigned as in :func:`erdos_renyi_graph`.
    """
    if vertex_count < 1:
        raise GraphError("vertex_count must be >= 1")
    if not (0.0 <= forward_probability < 1.0):
        raise GraphError("forward_probability must be in [0, 1)")
    if not (0.0 <= backward_probability < 1.0):
        raise GraphError("backward_probability must be in [0, 1)")
    rng = random.Random(seed)
    label_alphabet = list(labels) if labels is not None else default_labels(label_count)

    out_neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
    in_neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
    pairs: list[tuple[int, int]] = []

    def geometric(p: float) -> int:
        """Number of successes before first failure for probability ``p``."""
        count = 0
        while p > 0 and rng.random() < p:
            count += 1
        return count

    for new_vertex in range(1, vertex_count):
        ambassador = rng.randrange(new_vertex)
        visited: set[int] = set()
        frontier = [ambassador]
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            pairs.append((new_vertex, current))
            out_neighbours[new_vertex].append(current)
            in_neighbours[current].append(new_vertex)
            forward_burn = geometric(forward_probability)
            backward_burn = geometric(backward_probability)
            candidates_out = [v for v in out_neighbours[current] if v not in visited]
            candidates_in = [v for v in in_neighbours[current] if v not in visited]
            rng.shuffle(candidates_out)
            rng.shuffle(candidates_in)
            frontier.extend(candidates_out[:forward_burn])
            frontier.extend(candidates_in[:backward_burn])

    graph = LabeledDiGraph(name=name)
    graph.add_vertices_from(range(vertex_count))
    graph.add_edges_from(_label_edges(pairs, label_alphabet, rng, skew=label_skew))
    return graph


def barabasi_albert_graph(
    vertex_count: int,
    edges_per_vertex: int,
    label_count: int,
    *,
    labels: Optional[Sequence[str]] = None,
    label_skew: float = 0.0,
    seed: int = 0,
    name: str = "barabasi-albert",
) -> LabeledDiGraph:
    """Labeled preferential-attachment graph built on networkx's BA model.

    Each undirected BA edge is oriented from the newer vertex to the older
    one, matching citation-style real graphs.
    """
    if edges_per_vertex < 1:
        raise GraphError("edges_per_vertex must be >= 1")
    if vertex_count <= edges_per_vertex:
        raise GraphError("vertex_count must exceed edges_per_vertex")
    import networkx as nx

    rng = random.Random(seed)
    label_alphabet = list(labels) if labels is not None else default_labels(label_count)
    ba = nx.barabasi_albert_graph(vertex_count, edges_per_vertex, seed=seed)
    pairs = [(max(u, v), min(u, v)) for u, v in ba.edges()]
    graph = LabeledDiGraph(name=name)
    graph.add_vertices_from(range(vertex_count))
    graph.add_edges_from(_label_edges(pairs, label_alphabet, rng, skew=label_skew))
    return graph


def zipf_labeled_graph(
    vertex_count: int,
    edge_count: int,
    label_count: int,
    *,
    skew: float = 1.0,
    labels: Optional[Sequence[str]] = None,
    seed: int = 0,
    name: str = "zipf-labeled",
) -> LabeledDiGraph:
    """Random topology with Zipf-skewed label frequencies.

    This is the simplest model of a "real" edge-label distribution: a few
    labels are very common, most are rare.  Skew of 1.0 roughly matches the
    Moreno Health label histogram shown in the paper's Figure 1.
    """
    return erdos_renyi_graph(
        vertex_count,
        edge_count,
        label_count,
        labels=labels,
        label_skew=skew,
        seed=seed,
        name=name,
    )


def ring_labeled_graph(
    label_count: int,
    layer_size: int,
    edges_per_label: int,
    *,
    labels: Optional[Sequence[str]] = None,
    seed: int = 0,
    name: str = "ring-labeled",
) -> LabeledDiGraph:
    """A layered ring graph where labels compose only along the schema.

    Vertices form ``label_count`` layers of ``layer_size`` each; the ``i``-th
    label of the alphabet connects layer ``i`` to layer ``(i + 1) mod
    label_count`` with ``edges_per_label`` random edges.  Label ``x`` can
    therefore be followed only by the next label of the ring — the shape of
    schema-constrained data (typed edges that compose only along the schema,
    as in RDF / property graphs), and the workload where the incremental
    update's affected-subtree analysis shines: an edge change on one label
    can affect at most ``k`` of the ``label_count`` first-label subtrees.
    """
    if label_count < 2:
        raise GraphError("label_count must be >= 2")
    if layer_size < 1:
        raise GraphError("layer_size must be >= 1")
    if edges_per_label < 0:
        raise GraphError("edges_per_label must be >= 0")
    rng = random.Random(seed)
    label_alphabet = list(labels) if labels is not None else default_labels(label_count)
    if len(label_alphabet) != label_count:
        raise GraphError(
            f"expected {label_count} labels, got {len(label_alphabet)}"
        )
    graph = LabeledDiGraph(name=name)
    graph.add_vertices_from(range(label_count * layer_size))
    max_pairs = layer_size * layer_size
    for layer, label in enumerate(label_alphabet):
        source_base = layer * layer_size
        target_base = ((layer + 1) % label_count) * layer_size
        pairs: set[tuple[int, int]] = set()
        target_count = min(edges_per_label, max_pairs)
        while len(pairs) < target_count:
            pairs.add((rng.randrange(layer_size), rng.randrange(layer_size)))
        graph.add_edges_from(
            (source_base + source, label, target_base + target)
            for source, target in sorted(pairs)
        )
    return graph


def correlated_label_graph(
    vertex_count: int,
    edge_count: int,
    label_count: int,
    *,
    skew: float = 1.0,
    correlation: float = 0.6,
    labels: Optional[Sequence[str]] = None,
    seed: int = 0,
    name: str = "correlated-labels",
) -> LabeledDiGraph:
    """Stand-in for the paper's real datasets (Moreno Health, DBpedia).

    Label frequencies follow a Zipf distribution with exponent ``skew``, and
    with probability ``correlation`` an edge re-uses a label already incident
    to its source vertex instead of sampling a fresh one.  This produces the
    *edge-label cardinality correlations* that the paper credits for the
    smaller (but still present) advantage of sum-based ordering on real data:
    paths whose constituent labels are frequent also tend to be frequent.

    Parameters
    ----------
    correlation:
        Probability in ``[0, 1]`` of copying a label from an existing incident
        edge of the source vertex.  ``0`` degenerates to
        :func:`zipf_labeled_graph`.
    """
    if not (0.0 <= correlation <= 1.0):
        raise GraphError("correlation must be in [0, 1]")
    rng = random.Random(seed)
    label_alphabet = list(labels) if labels is not None else default_labels(label_count)
    weights = _zipf_weights(len(label_alphabet), skew)

    pairs: set[tuple[int, int]] = set()
    max_pairs = vertex_count * vertex_count
    target = min(edge_count, max_pairs)
    while len(pairs) < target:
        pairs.add((rng.randrange(vertex_count), rng.randrange(vertex_count)))

    # Process pairs grouped by source so the "copy an incident label" rule has
    # something to copy from; a hub vertex therefore tends to emit one or two
    # dominant labels, exactly the correlation structure seen in real graphs.
    incident_labels: dict[int, list[str]] = {}
    triples: list[tuple[int, str, int]] = []
    for source, target_vertex in sorted(pairs):
        existing = incident_labels.get(source)
        if existing and rng.random() < correlation:
            label = rng.choice(existing)
        else:
            label = rng.choices(label_alphabet, weights=weights, k=1)[0]
        incident_labels.setdefault(source, []).append(label)
        incident_labels.setdefault(target_vertex, []).append(label)
        triples.append((source, label, target_vertex))

    graph = LabeledDiGraph(name=name)
    graph.add_vertices_from(range(vertex_count))
    graph.add_edges_from(triples)
    return graph
