"""Tests for label-path enumeration and bulk selectivity computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    domain_size,
    enumerate_label_paths,
)
from repro.paths.evaluation import MatrixPathEvaluator
from repro.paths.label_path import LabelPath


def selectivities(graph, max_length, labels=None):
    """``LabelPath -> f`` over the whole domain, from the nonzero builder."""
    alphabet = sorted(labels) if labels is not None else graph.labels()
    indices, counts = compute_selectivity_nonzeros(graph, max_length, labels=labels)
    vector = np.zeros(domain_size(len(alphabet), max_length), dtype=np.int64)
    vector[indices] = counts
    return dict(zip(enumerate_label_paths(alphabet, max_length), vector.tolist()))


class TestDomainSize:
    def test_paper_moreno_value(self):
        # 6 labels, k=6: 6 + 36 + ... + 6^6 = 55986 (the paper rounds to 55996).
        assert domain_size(6, 6) == sum(6**i for i in range(1, 7))

    def test_small_cases(self):
        assert domain_size(3, 2) == 12
        assert domain_size(2, 3) == 14
        assert domain_size(1, 5) == 5

    def test_validation(self):
        with pytest.raises(PathError):
            domain_size(0, 2)
        with pytest.raises(PathError):
            domain_size(3, 0)


class TestEnumeration:
    def test_order_is_length_then_alphabetical(self):
        paths = [str(p) for p in enumerate_label_paths(["b", "a"], 2)]
        assert paths == ["a", "b", "a/a", "a/b", "b/a", "b/b"]

    def test_count_matches_domain_size(self):
        paths = list(enumerate_label_paths(["1", "2", "3"], 3))
        assert len(paths) == domain_size(3, 3)
        assert len(set(paths)) == len(paths)

    def test_invalid_arguments(self):
        with pytest.raises(PathError):
            list(enumerate_label_paths(["a"], 0))
        with pytest.raises(PathError):
            list(enumerate_label_paths([], 2))


class TestComputeSelectivities:
    def test_matches_direct_evaluation(self, triangle_graph):
        evaluator = MatrixPathEvaluator(triangle_graph)
        for path, value in selectivities(triangle_graph, 3).items():
            assert value == evaluator.selectivity(path), f"mismatch on {path}"

    def test_covers_whole_domain(self, triangle_graph):
        indices, _ = compute_selectivity_nonzeros(triangle_graph, 2)
        assert 0 <= int(indices.min()) and int(indices.max()) < domain_size(3, 2)
        assert len(selectivities(triangle_graph, 2)) == domain_size(3, 2)

    def test_prune_empty_drops_zero_subtrees(self, triangle_graph):
        # The sparse builder keeps exactly the nonzero paths of the full domain.
        indices, counts = compute_selectivity_nonzeros(triangle_graph, 3)
        assert bool(np.all(counts > 0))
        evaluator = MatrixPathEvaluator(triangle_graph)
        full = np.array(
            [
                evaluator.selectivity(path)
                for path in enumerate_label_paths(triangle_graph.labels(), 3)
            ]
        )
        assert indices.tolist() == np.flatnonzero(full).tolist()
        assert counts.tolist() == full[indices].tolist()

    def test_zero_subtree_recorded_when_not_pruned(self, triangle_graph):
        values = selectivities(triangle_graph, 3)
        # z/z is empty, and so must every extension of it be.
        assert values[LabelPath.parse("z/z")] == 0
        assert values[LabelPath.parse("z/z/x")] == 0

    def test_label_restriction(self, triangle_graph):
        values = selectivities(triangle_graph, 2, labels=["x", "y"])
        assert len(values) == domain_size(2, 2)
        assert all(set(path.labels) <= {"x", "y"} for path in values)
        evaluator = MatrixPathEvaluator(triangle_graph)
        for path, value in values.items():
            assert value == evaluator.selectivity(path), f"mismatch on {path}"

    def test_progress_callback_invoked(self, small_graph):
        calls: list[int] = []
        compute_selectivity_nonzeros(small_graph, 3, progress=calls.append)
        # One call per label extension of the kernel; the running count is
        # monotonic and ends at the domain size (84 paths for 4 labels, k=3).
        assert calls == sorted(calls)
        assert calls[-1] == domain_size(4, 3)

    def test_invalid_max_length(self, triangle_graph):
        with pytest.raises(PathError):
            compute_selectivity_nonzeros(triangle_graph, 0)
