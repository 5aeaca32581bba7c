import math
import statistics
import threading

import numpy as np
import pytest

import layers
import measure
import tracer


def test_percentile_interpolates_between_order_statistics_with_sample_count():
    values = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]
    assert measure.percentile(values, 50) == (5.5, 10)
    assert measure.percentile(values, 90) == pytest.approx((9.1, 10))
    assert measure.percentile(values, 100) == (10.0, 10)
    assert measure.percentile([3.0], 99) == (3.0, 1)
    assert measure.percentile([], 50) == (0.0, 0)
    # Agrees with the standard library's inclusive quantiles.
    assert measure.percentile(values, 90)[0] == pytest.approx(
        statistics.quantiles(values, n=10, method="inclusive")[8]
    )
    with pytest.raises(ValueError):
        measure.percentile(values, 0)


def test_eq6_error_matches_the_paper_definition():
    estimates = np.array([2.0, 1.0, 0.0, 5.0, 0.0])
    truths = np.array([1.0, 4.0, 0.0, 5.0, 3.0])
    assert measure.eq6_error(estimates, truths).tolist() == [0.5, 0.75, 0.0, 0.0, 1.0]


def test_qerror_floors_both_sides_at_one():
    estimates = np.array([0.3, 40.0, 0.0, 2.0, 8.0])
    truths = np.array([0.0, 0.0, 10.0, 4.0, 2.0])
    assert measure.qerror_floored(estimates, truths).tolist() == [1.0, 40.0, 10.0, 2.0, 4.0]


def test_accuracy_weights_distinct_paths_by_multiplicity():
    estimates = np.array([1.0, 3.0, 10.0])
    truths = np.array([1.0, 1.0, 5.0])
    counts = np.array([17, 2, 1])
    scores = measure.accuracy(estimates, truths, counts)
    expanded_e = np.repeat(estimates, counts)
    expanded_t = np.repeat(truths, counts)
    assert scores["probes"] == 20
    assert scores["est_error_mean"] == pytest.approx(
        measure.eq6_error(expanded_e, expanded_t).mean()
    )
    # 95% of 20 draws is the 19th smallest q-error: the q=3 path.
    assert scores["qerror_p95"] == 3.0


def test_self_time_counts_overlapping_children_once():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert measure.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert measure.self_time(0.0, 10.0, []) == 10.0
    assert measure.self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0


def test_span_self_time_across_threads():
    recorder = tracer.Recorder()
    parent = recorder.enter("http.request")
    child = recorder.open("scheduler.turnaround")
    closed = threading.Event()

    def resolve():
        child[tracer.END] = child[tracer.START] + 0.004
        closed.set()

    thread = threading.Thread(target=resolve)
    thread.start()
    thread.join(timeout=5)
    assert closed.is_set()
    recorder.leave(parent)
    parent[tracer.START] = child[tracer.START] - 0.001
    parent[tracer.END] = child[tracer.START] + 0.006
    assert child[tracer.PARENT] == parent[tracer.ID]
    index = layers.SpanIndex(recorder.spans)
    assert index.self_time(parent) == pytest.approx(0.003)
    # The turnaround span has no children of its own: it is a leaf.
    assert index.residual(parent) == pytest.approx(0.003)


def test_residual_subtracts_leaf_spans_at_any_depth():
    spans = [
        [1, 0, "registry.update_graph", 0.0, 10.0, 1, "", {}],
        [2, 1, "session.update", 0.5, 9.5, 1, "", {}],
        [3, 2, "paths.apply_delta", 1.0, 6.0, 1, "", {}],
        [4, 2, "histogram.build_histogram", 6.5, 9.0, 1, "", {}],
    ]
    index = layers.SpanIndex(spans)
    assert index.residual(spans[0]) == pytest.approx(10.0 - 5.0 - 2.5)
    assert index.self_time(spans[0]) == pytest.approx(1.0)


def test_iqr_share():
    assert measure.iqr_share([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert math.isfinite(measure.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]))
