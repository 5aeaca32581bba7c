"""Statistics the benchmark reports: percentiles, accuracy, spans, spread.

Everything here is pure (no I/O, no program imports) so the self-tests in
``perfbench/tests`` can pin it down exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """``q``-th percentile of ``values`` and the sample count.

    Linear interpolation between the order statistics at rank
    ``1 + (n − 1)·q/100`` (numpy's default): with the handful of cold
    builds a run holds, a nearest-rank p90 would be the slowest build alone.
    An empty sample gives ``(0.0, 0)``: a bypassed layer reports zero work
    rather than failing the run.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    count = len(values)
    if count == 0:
        return 0.0, 0
    ordered = sorted(values)
    position = (count - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, count - 1)
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction), count


def mean(values: Sequence[float]) -> tuple[float, int]:
    """Arithmetic mean and sample count (``(0.0, 0)`` when empty)."""
    if not values:
        return 0.0, 0
    return float(sum(values)) / len(values), len(values)


def eq6_error(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Absolute Equation-6 error rate per pair, the paper's Figure 2 measure.

    ``|e − f| / max(e, f)``, and 0 where ``e == f`` (which covers 0/0).
    """
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truths, dtype=np.float64)
    high = np.maximum(est, tru)
    safe = np.where(high > 0, high, 1.0)
    return np.where(est == tru, 0.0, np.abs(est - tru) / safe)


def qerror_floored(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """q-error per pair with both sides floored at 1.

    The floor keeps zero truths (and zero estimates) finite: an estimate of
    0.3 for a path that does not occur scores 1, an estimate of 40 scores 40.
    """
    est = np.maximum(np.asarray(estimates, dtype=np.float64), 1.0)
    tru = np.maximum(np.asarray(truths, dtype=np.float64), 1.0)
    return np.maximum(est, tru) / np.minimum(est, tru)


def accuracy(
    estimates: np.ndarray, truths: np.ndarray, multiplicity: Optional[np.ndarray] = None
) -> dict[str, float]:
    """Eq. 6 mean and nearest-rank p95 q-error over a probe multiset.

    ``estimates``/``truths`` hold one entry per distinct probe path and
    ``multiplicity`` how often the probe set draws it, so the figures are
    those of the full multiset without estimating a path twice.
    """
    counts = (
        np.ones(len(estimates), dtype=np.int64)
        if multiplicity is None
        else np.asarray(multiplicity, dtype=np.int64)
    )
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty probe set")
    errors = eq6_error(estimates, truths)
    qerrors = qerror_floored(estimates, truths)
    order = np.argsort(qerrors, kind="stable")
    cumulative = np.cumsum(counts[order])
    rank = max(1, math.ceil(0.95 * total))
    p95 = float(qerrors[order][int(np.searchsorted(cumulative, rank))])
    return {
        "est_error_mean": float(np.dot(errors, counts) / total),
        "qerror_p95": p95,
        "probes": total,
    }


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    covered = 0.0
    run_start: Optional[float] = None
    run_end = lo
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        covered += run_end - run_start
    return covered


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap one another (a batch answered on another thread
    while the parent's own thread waits) or reach past the parent's ends;
    only the union of their intervals inside ``[start, end]`` counts.
    """
    return (end - start) - union_length(children, start, end)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness check)."""
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else math.inf
