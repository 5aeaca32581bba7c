"""Seeded inputs: graphs, request paths, probe sets and delta sequences.

Graphs come from the program's generators at their default seeds, so the
domain, its catalog and the paper's accuracy figures are the same for
every ``--seed``; the seed picks the request stream, the probe set and the
delta sequence.  (Across ten generator seeds the dbpedia stand-in's p95
q-error spread by 28% of its median, wider than any bound a regression
check can use.)  The samplers mirror ``positive_workload(weighted=True)``
and ``sampled_workload`` but live here, so a change to the program's own
workload helpers cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json

import numpy as np

#: Each draw of a request or probe path picks one of the two kinds with
#: equal odds: a nonzero path weighted by its selectivity, or a uniform
#: sample of the whole domain.
POSITIVE_SHARE = 0.5


def dbpedia_graph():
    from repro.datasets import load_dataset

    return load_dataset("dbpedia", scale=0.05)


def zipf_graph():
    from repro.graph.generators import zipf_labeled_graph

    return zipf_labeled_graph(5000, 2000, 20, skew=1.0)


def moreno_graph():
    from repro.datasets import load_dataset

    return load_dataset("moreno-health", scale=0.3)


def snap_er_graph():
    from repro.datasets import load_dataset

    return load_dataset("snap-er", scale=0.13)


class PathSampler:
    """Draws request/probe paths from a reference catalog."""

    def __init__(self, catalog, seed: int) -> None:
        self._labels = list(catalog.labels)
        self._k = catalog.max_length
        _, values = catalog.nonzero_arrays()
        self._nonzero = [str(path) for path in catalog.nonzero_paths()]
        weights = np.asarray(values, dtype=np.float64)
        self._cumulative = np.cumsum(weights / weights.sum())
        self._cumulative[-1] = 1.0
        count = len(self._labels)
        by_length = np.array([count**n for n in range(1, self._k + 1)], dtype=np.float64)
        self._length_cumulative = np.cumsum(by_length / by_length.sum())
        self._length_cumulative[-1] = 1.0
        self._rng = np.random.default_rng(seed)

    def draw(self, count: int) -> list[str]:
        """``count`` paths, each positive-weighted or uniform with equal odds."""
        rng = self._rng
        positive = rng.random(count) < POSITIVE_SHARE
        picks = np.searchsorted(self._cumulative, rng.random(count), side="right")
        lengths = np.searchsorted(self._length_cumulative, rng.random(count), side="right") + 1
        letters = rng.integers(0, len(self._labels), size=(count, self._k))
        out = []
        for i in range(count):
            if positive[i]:
                out.append(self._nonzero[int(picks[i])])
            else:
                out.append("/".join(self._labels[j] for j in letters[i, : lengths[i]]))
        return out

    def requests(self, count: int, low: int, high: int) -> list[list[str]]:
        """``count`` path lists with sizes uniform in ``[low, high]``."""
        sizes = self._rng.integers(low, high + 1, size=count)
        flat = self.draw(int(sizes.sum()))
        out, at = [], 0
        for size in sizes:
            out.append(flat[at : at + int(size)])
            at += int(size)
        return out


def probe_set(sampler: PathSampler, draws: int) -> tuple[list[str], np.ndarray]:
    """Distinct probe paths (sorted) and how often the probe set draws each."""
    paths, counts = np.unique(np.array(sampler.draw(draws), dtype=object), return_counts=True)
    return [str(p) for p in paths], counts.astype(np.int64)


def estimate_body(graph: str, paths: list[str]) -> bytes:
    """A pre-encoded ``/v1/estimate`` request body."""
    return json.dumps({"graph": graph, "paths": paths}).encode("utf-8")


def delta_sequence(graph, count: int, seed: int) -> list[dict[str, list[list[str]]]]:
    """``count`` deltas that keep the edge count and never repeat a state.

    Each delta adds 2 fresh edges (never in the graph, never added before)
    and removes the 2 edges the previous delta added; the first removes 2
    edges of the original graph instead.  Every state therefore holds its
    own fresh pair, so no state repeats and no update can warm-load an
    earlier state's artifacts.  Vertices are strings, as ``repro serve``
    reads them from the edge list.
    """
    rng = np.random.default_rng(seed)
    vertices = sorted({str(v) for v in graph.vertices()})
    labels = sorted(graph.labels())
    existing = {(str(e.source), e.label, str(e.target)) for e in graph.edges()}
    originals = sorted(existing)
    used = set(existing)
    first = rng.choice(len(originals), size=2, replace=False)
    previous = [list(originals[int(i)]) for i in first]
    deltas = []
    for _ in range(count):
        fresh = []
        while len(fresh) < 2:
            edge = (
                vertices[int(rng.integers(len(vertices)))],
                labels[int(rng.integers(len(labels)))],
                vertices[int(rng.integers(len(vertices)))],
            )
            if edge not in used:
                used.add(edge)
                fresh.append(list(edge))
        deltas.append({"add": fresh, "remove": previous})
        previous = fresh
    return deltas
