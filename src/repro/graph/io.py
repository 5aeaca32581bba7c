"""Reading and writing edge-labeled graphs.

The interchange format is the **edge list**: one edge per line,
``source <sep> label <sep> target``, with ``#``-prefixed comment lines.
This covers the KONECT / SNAP style files the paper's datasets are
distributed in.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, TextIO, Union

from repro.exceptions import GraphIOError
from repro.graph.digraph import LabeledDiGraph

__all__ = ["read_edge_list", "write_edge_list"]

PathLike = Union[str, Path]


def _open_for_read(source: Union[PathLike, TextIO]):
    """Return ``(file_object, should_close)`` for a path or open text file."""
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "r", encoding="utf-8"), True


def _open_for_write(target: Union[PathLike, TextIO]):
    """Return ``(file_object, should_close)`` for a path or open text file."""
    if hasattr(target, "write"):
        return target, False
    return open(Path(target), "w", encoding="utf-8"), True


def read_edge_list(
    source: Union[PathLike, TextIO],
    *,
    separator: Optional[str] = None,
    comment: str = "#",
    name: str = "",
    default_label: Optional[str] = None,
) -> LabeledDiGraph:
    """Read a graph from an edge-list file.

    Each non-empty, non-comment line must contain ``source label target``
    (three fields) or, when ``default_label`` is given, ``source target``
    (two fields, all edges receiving ``default_label``).  Fields are split on
    ``separator`` (``None`` means any whitespace, like ``str.split``).

    Raises
    ------
    GraphIOError
        If a line has an unexpected number of fields.
    """
    handle, should_close = _open_for_read(source)
    graph = LabeledDiGraph(name=name)
    try:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(comment):
                continue
            fields = line.split(separator)
            if len(fields) == 3:
                source_vertex, label, target_vertex = fields
            elif len(fields) == 2 and default_label is not None:
                source_vertex, target_vertex = fields
                label = default_label
            else:
                raise GraphIOError(
                    f"line {line_number}: expected 3 fields "
                    f"(source label target), got {len(fields)}: {line!r}"
                )
            graph.add_edge(source_vertex, label, target_vertex)
    finally:
        if should_close:
            handle.close()
    return graph


def write_edge_list(
    graph: LabeledDiGraph,
    target: Union[PathLike, TextIO],
    *,
    separator: str = "\t",
    header: bool = True,
) -> None:
    """Write ``graph`` as an edge-list file (``source label target`` per line)."""
    handle, should_close = _open_for_write(target)
    try:
        if header:
            handle.write(
                f"# graph: {graph.name or 'unnamed'}  "
                f"vertices={graph.vertex_count} edges={graph.edge_count} "
                f"labels={graph.label_count}\n"
            )
        for edge in sorted(graph.edges(), key=lambda e: (str(e.source), e.label, str(e.target))):
            handle.write(
                f"{edge.source}{separator}{edge.label}{separator}{edge.target}\n"
            )
    finally:
        if should_close:
            handle.close()
