"""Tests for graph reading and writing."""

from __future__ import annotations

import io

import pytest

from repro.exceptions import GraphIOError
from repro.graph.io import read_edge_list, write_edge_list


class TestEdgeList:
    def test_round_trip_via_path(self, triangle_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(triangle_graph, path)
        back = read_edge_list(path, name="triangle")
        assert back == triangle_graph

    def test_round_trip_via_file_object(self, triangle_graph):
        buffer = io.StringIO()
        write_edge_list(triangle_graph, buffer)
        buffer.seek(0)
        back = read_edge_list(buffer)
        assert back == triangle_graph

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n a x b \nb y c\n"
        graph = read_edge_list(io.StringIO(text))
        assert graph.edge_count == 2
        assert graph.has_edge("a", "x", "b")

    def test_two_column_with_default_label(self):
        text = "a b\nb c\n"
        graph = read_edge_list(io.StringIO(text), default_label="e")
        assert graph.edge_count == 2
        assert graph.labels() == ["e"]

    def test_wrong_field_count_raises_with_line_number(self):
        text = "a x b\na x\n"
        with pytest.raises(GraphIOError, match="line 2"):
            read_edge_list(io.StringIO(text))

    def test_custom_separator(self):
        text = "a|x|b\n"
        graph = read_edge_list(io.StringIO(text), separator="|")
        assert graph.has_edge("a", "x", "b")

    def test_header_written(self, triangle_graph):
        buffer = io.StringIO()
        write_edge_list(triangle_graph, buffer, header=True)
        assert buffer.getvalue().startswith("# graph:")

    def test_no_header(self, triangle_graph):
        buffer = io.StringIO()
        write_edge_list(triangle_graph, buffer, header=False)
        assert not buffer.getvalue().startswith("#")
