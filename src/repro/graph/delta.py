"""Graph deltas: batched edge additions/removals with affected-label analysis.

A :class:`GraphDelta` is an immutable batch of edge additions and removals —
the unit of change the incremental-update pipeline consumes.  Today every
catalog build is a cold full pass over the graph, so any edge churn forces an
``O(|L|^k)`` rebuild; a delta carries exactly the information needed to do
better:

* :meth:`GraphDelta.apply` mutates a graph into its post-delta state (and
  :meth:`GraphDelta.reversed` undoes it);
* :func:`affected_first_labels` is the **affected-subtree analysis**: a
  conservative, cheap (``O(|L|²)`` set intersections) answer to *which
  first-label subtrees of the path trie can possibly change* — the index
  ranges :func:`~repro.paths.enumeration.update_selectivity_nonzeros`
  recomputes while keeping every other nonzero entry.

The analysis rests on label composition: the selectivity of a path depends
only on the matrices of the labels it contains, and a path containing a
changed label can only have a non-zero count (before or after the delta) if
its label sequence is *composable* — every consecutive label pair ``(x, y)``
shares at least one vertex with an incoming ``x`` edge and an outgoing ``y``
edge.  A first-label subtree is therefore affected only if a composable walk
of at most ``k - 1`` hops leads from its root label to a changed label (or
the root label changed itself).  On schema-structured graphs — typed edges
that compose only along the schema, the common shape of RDF / property-graph
data — that walk set is small and most subtrees are provably untouched.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, TextIO, Union

from repro.exceptions import GraphError, GraphIOError
from repro.graph.digraph import Edge, LabeledDiGraph

__all__ = [
    "GraphDelta",
    "affected_first_labels",
    "read_delta",
    "write_delta",
]

PathLike = Union[str, Path]
Triple = tuple[object, str, object]


def _as_edges(triples: Iterable[Sequence[object]], kind: str) -> tuple[Edge, ...]:
    """Normalise an iterable of ``(source, label, target)`` into unique Edges."""
    edges: dict[Edge, None] = {}
    for triple in triples:
        # Explicit shape check: untrusted input (the HTTP body) must fail
        # with GraphError, never TypeError, and a 3-character string is not
        # a triple.
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise GraphError(
                f"{kind} entries must be (source, label, target) triples, "
                f"got {triple!r}"
            )
        source, label, target = triple
        if not isinstance(label, str):
            raise GraphError(
                f"edge labels must be strings, got {type(label).__name__}"
            )
        try:
            edges[Edge(source, label, target)] = None
        except TypeError as exc:  # unhashable vertex (e.g. a nested list)
            raise GraphError(
                f"{kind} entry has unhashable vertices: {triple!r}"
            ) from exc
    return tuple(edges)


class GraphDelta:
    """An immutable batch of edge additions and removals.

    Parameters
    ----------
    additions / removals:
        Iterables of ``(source, label, target)`` triples.  Duplicates are
        collapsed; a triple appearing on *both* sides is rejected (the net
        effect would depend on application order, which a set-shaped delta
        cannot express).
    """

    __slots__ = ("_additions", "_removals", "_labels")

    def __init__(
        self,
        additions: Iterable[Sequence[object]] = (),
        removals: Iterable[Sequence[object]] = (),
    ) -> None:
        self._additions = _as_edges(additions, "additions")
        self._removals = _as_edges(removals, "removals")
        overlap = set(self._additions) & set(self._removals)
        if overlap:
            example = next(iter(overlap))
            raise GraphError(
                f"delta adds and removes the same edge "
                f"({len(overlap)} overlapping, e.g. {tuple(example)!r})"
            )
        self._labels = frozenset(
            edge.label for edge in self._additions + self._removals
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def additions(self) -> tuple[Edge, ...]:
        """The edges the delta inserts."""
        return self._additions

    @property
    def removals(self) -> tuple[Edge, ...]:
        """The edges the delta deletes."""
        return self._removals

    def labels(self) -> frozenset[str]:
        """Every label touched by the delta (the changed-label set ``S``)."""
        return self._labels

    def __len__(self) -> int:
        return len(self._additions) + len(self._removals)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return (
            set(self._additions) == set(other._additions)
            and set(self._removals) == set(other._removals)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._additions), frozenset(self._removals)))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<GraphDelta +{len(self._additions)} -{len(self._removals)} "
            f"labels={sorted(self._labels)}>"
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, graph: LabeledDiGraph, *, strict: bool = False) -> tuple[int, int]:
        """Mutate ``graph`` into its post-delta state.

        Removals run first so an edge moved between labels round-trips
        cleanly.  Returns ``(added, removed)`` — the counts of edges that
        actually changed.  With ``strict=True`` an addition that already
        exists or a removal that does not raises :class:`GraphError`
        (useful when the delta is supposed to describe real churn);
        otherwise such entries are no-ops, which keeps ``apply`` idempotent.
        """
        removed = 0
        for edge in self._removals:
            if graph.remove_edge(edge.source, edge.label, edge.target):
                removed += 1
            elif strict:
                raise GraphError(f"removal of missing edge {tuple(edge)!r}")
        added = 0
        for edge in self._additions:
            if graph.add_edge(edge.source, edge.label, edge.target):
                added += 1
            elif strict:
                raise GraphError(f"addition of existing edge {tuple(edge)!r}")
        return added, removed

    def reversed(self) -> "GraphDelta":
        """The inverse delta (applying both is a no-op on any graph)."""
        return GraphDelta(additions=self._removals, removals=self._additions)

    # ------------------------------------------------------------------
    # interchange
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, list[list[object]]]:
        """A JSON-shaped document (``{"add": [...], "remove": [...]}``)."""
        return {
            "add": [[edge.source, edge.label, edge.target] for edge in self._additions],
            "remove": [
                [edge.source, edge.label, edge.target] for edge in self._removals
            ],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_dict` output (or an HTTP body)."""
        additions = document.get("add", [])
        removals = document.get("remove", [])
        for name, value in (("add", additions), ("remove", removals)):
            if not isinstance(value, (list, tuple)):
                raise GraphError(f'delta field "{name}" must be a list of triples')
        return cls(additions=additions, removals=removals)  # type: ignore[arg-type]


def affected_first_labels(
    graph: LabeledDiGraph,
    delta: GraphDelta,
    max_length: int,
    *,
    labels: Optional[Sequence[str]] = None,
) -> tuple[str, ...]:
    """First labels whose path-trie subtree may change under ``delta``.

    ``graph`` must be the **post-delta** graph.  The answer is conservative
    (a superset of the truly changed subtrees) but sound: every first label
    *not* returned roots a subtree whose selectivity slice is byte-identical
    before and after the delta.

    Soundness argument: a path's selectivity changes only if the path
    contains a changed label, and such a path has a non-zero count (old or
    new) only if its prefix up to the first changed label is composable —
    i.e. there is a walk ``a → x₁ → ... → s`` of at most ``k - 1`` hops in
    the label-follows relation ``F`` (``F(x, y)`` iff some vertex has an
    incoming ``x`` edge and an outgoing ``y`` edge), where only the final
    hop lands on a changed label.  Hops between unchanged labels have
    identical ``F`` entries before and after the delta; for the final hop
    the old source support of a changed label is covered by its new support
    plus the sources of its removed edges.  A bounded reverse BFS from the
    changed set over that union relation therefore reaches every possibly
    affected root.
    """
    alphabet = tuple(sorted(labels)) if labels is not None else tuple(graph.labels())
    if max_length < 1:
        raise GraphError("max_length must be >= 1")
    alphabet_set = set(alphabet)
    changed = delta.labels() & alphabet_set
    # A delta label outside the alphabet that is *present in the graph* is a
    # genuine domain mismatch (the canonical index space does not cover it).
    # One that is absent from the graph too can only come from a no-op
    # removal — it contributes to no path count before or after, so it is
    # ignored rather than poisoning an update whose graph was already
    # mutated.
    unknown = sorted(
        label
        for label in delta.labels() - alphabet_set
        if graph.has_label(label)
    )
    if unknown:
        raise GraphError(
            f"delta touches labels outside the alphabet: {', '.join(unknown)}"
        )
    if not changed:
        return ()

    def sources_of(label: str) -> frozenset[object]:
        """Source vertices of ``label`` edges on the new graph."""
        if not graph.has_label(label):
            return frozenset()
        return frozenset(graph.forward_adjacency(label))

    def targets_of(label: str) -> frozenset[object]:
        """Target vertices of ``label`` edges on the new graph."""
        if not graph.has_label(label):
            return frozenset()
        return frozenset(graph.backward_adjacency(label))

    # Source supports on the new graph; for changed labels, widened by the
    # removed edges' sources so the relation covers the old graph too.
    sources: dict[str, frozenset[object]] = {x: sources_of(x) for x in alphabet}
    widened: dict[str, frozenset[object]] = dict(sources)
    for edge in delta.removals:
        if edge.label in widened:
            widened[edge.label] = widened[edge.label] | {edge.source}
    targets = {x: targets_of(x) for x in alphabet}

    affected = set(changed)
    frontier = set(changed)
    for _ in range(max_length - 1):
        reachable_supports = [
            widened[y] if y in changed else sources[y] for y in frontier
        ]
        frontier = {
            x
            for x in alphabet
            if x not in affected
            and any(targets[x] & support for support in reachable_supports)
        }
        if not frontier:
            break
        affected |= frontier
    return tuple(label for label in alphabet if label in affected)


# ----------------------------------------------------------------------
# delta files (the CLI's interchange form)
# ----------------------------------------------------------------------
def read_delta(
    source: Union[PathLike, TextIO],
    *,
    separator: Optional[str] = None,
    comment: str = "#",
) -> GraphDelta:
    """Read a delta from a text file.

    Each non-empty, non-comment line is ``OP source label target`` where
    ``OP`` is ``+`` (addition) or ``-`` (removal); fields split on
    ``separator`` (``None`` = any whitespace), matching the edge-list format
    with one leading operation column.
    """
    if hasattr(source, "read"):
        handle, should_close = source, False
    else:
        handle, should_close = open(Path(source), "r", encoding="utf-8"), True
    additions: list[Triple] = []
    removals: list[Triple] = []
    try:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(comment):
                continue
            fields = line.split(separator)
            if len(fields) != 4 or fields[0] not in ("+", "-"):
                raise GraphIOError(
                    f"line {line_number}: expected '+|- source label target', "
                    f"got {line!r}"
                )
            operation, source_vertex, label, target_vertex = fields
            triple = (source_vertex, label, target_vertex)
            (additions if operation == "+" else removals).append(triple)
    finally:
        if should_close:
            handle.close()
    try:
        return GraphDelta(additions=additions, removals=removals)
    except GraphError as exc:
        raise GraphIOError(f"invalid delta file: {exc}") from exc


def write_delta(
    delta: GraphDelta,
    target: Union[PathLike, TextIO],
    *,
    separator: str = "\t",
) -> None:
    """Write ``delta`` in the format :func:`read_delta` reads."""
    if hasattr(target, "write"):
        handle, should_close = target, False
    else:
        handle, should_close = open(Path(target), "w", encoding="utf-8"), True
    try:
        for operation, edges in (("+", delta.additions), ("-", delta.removals)):
            for edge in edges:
                handle.write(
                    separator.join(
                        (operation, str(edge.source), edge.label, str(edge.target))
                    )
                    + "\n"
                )
    finally:
        if should_close:
            handle.close()
