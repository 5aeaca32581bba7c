"""Metric derivations: end-to-end figures and per-layer attribution.

End-to-end figures come from the untraced pass only.  Per-layer figures
come from the program's own counters in that pass (``/metrics``,
``/v1/stats``, ``/v1/update`` answers) and from the traced pass's spans.
A layer the workload never calls reports 0 with 0 samples.
"""

from __future__ import annotations

import measure
import serve
from tracer import ATTRS, END, ID, NAME, PARENT, START


def _median(values) -> float:
    return measure.percentile(values, 50)[0]


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def server_end_to_end(outcome, result) -> dict:
    """End-to-end metrics of a server pass; returns the p99 for the report."""
    reads = [e for _, e in result.reads]
    read_ms = [e.ms for e in reads]
    answered = sum(1 for e in reads if e.status == 200)
    outcome.e2e("setup_s", _median(result.setup_s), "s", len(result.setup_s))
    p50, n = measure.percentile(read_ms, 50)
    outcome.e2e("latency_p50_ms", p50, "ms", n)
    p90, n = measure.percentile(read_ms, 90)
    outcome.e2e("latency_p90_ms", p90, "ms", n)
    rps = answered / result.read_seconds if result.read_seconds else 0.0
    outcome.e2e("throughput_rps", rps, "1/s", answered)
    # Updates and warm loads are pure CPU work: from run to run their
    # medians follow the host's CPU speed by more than the widest bound in
    # BENCHMARK.json (0.25), so they are reported per layer, without one.
    update_ms = [(u["received"] - u["due"]) * 1000.0 for u in result.updates]
    p50, n = measure.percentile(update_ms, 50)
    outcome.layer("update_p50_ms", p50, "ms", n)
    p50, n = measure.percentile(result.warm_ms, 50)
    outcome.layer("warm_p50_ms", p50, "ms", n)
    outcome.e2e("peak_rss_mb", result.peak_rss_mb, "MiB", 1)
    outcome.e2e("artifact_mb", result.artifact_mb, "MiB", 1)
    return {"latency_p99_ms": measure.percentile(read_ms, 99)}


def build_end_to_end(outcome, report) -> dict:
    cold = report["cold_ms"]
    outcome.e2e("setup_s", _median(report["setup_s"]), "s", len(report["setup_s"]))
    p50, n = measure.percentile(cold, 50)
    outcome.e2e("latency_p50_ms", p50, "ms", n)
    p90, n = measure.percentile(cold, 90)
    outcome.e2e("latency_p90_ms", p90, "ms", n)
    started, ended = report["window"]
    outcome.e2e("throughput_rps", len(cold) / (ended - started), "1/s", len(cold))
    p50, n = measure.percentile([u["ms"] for u in report["updates"]], 50)
    outcome.layer("update_p50_ms", p50, "ms", n)
    p50, n = measure.percentile(report["warm_ms"], 50)
    outcome.layer("warm_p50_ms", p50, "ms", n)
    outcome.e2e("peak_rss_mb", report["peak_rss_mb"], "MiB", 1)
    outcome.e2e("artifact_mb", report["artifact_mb"], "MiB", 1)
    return {"latency_p99_ms": measure.percentile(cold, 99)}


# ----------------------------------------------------------------------
# counters (every untraced run)
# ----------------------------------------------------------------------
def _delta(after: dict, before: dict, name: str, **labels: str) -> float:
    return serve.series_sum(after, name, **labels) - serve.series_sum(before, name, **labels)


def server_counters(outcome, result) -> None:
    after, before = result.metrics_after, result.metrics_before
    handled = _delta(after, before, "repro_http_request_seconds_count", route="/estimate")
    handler_s = _delta(after, before, "repro_http_request_seconds_sum", route="/estimate")
    handler_ms = handler_s / handled * 1000.0 if handled else 0.0
    client_ms, reads = measure.mean([e.ms for _, e in result.reads])
    outcome.layer("http.handler_ms_mean", handler_ms, "ms", handled)
    outcome.layer("http.wire_ms_mean", client_ms - handler_ms if reads else 0.0, "ms", reads)
    waits = _delta(after, before, "repro_scheduler_wait_seconds_count")
    wait_s = _delta(after, before, "repro_scheduler_wait_seconds_sum")
    wait_ms = wait_s / waits * 1000.0 if waits else 0.0
    outcome.layer("scheduler.wait_ms_mean", wait_ms, "ms", waits)
    batches = _delta(after, before, "repro_scheduler_batch_seconds_count")
    batch_s = _delta(after, before, "repro_scheduler_batch_seconds_sum")
    coalesced = _delta(after, before, "repro_scheduler_batch_requests_sum")
    outcome.layer(
        "scheduler.batch_ms_mean", batch_s / batches * 1000.0 if batches else 0.0, "ms", batches
    )
    outcome.layer("scheduler.coalesced_mean", coalesced / batches if batches else 0.0, "1", batches)
    outcome.layer("scheduler.batches", batches, "count", 1)
    sched_after = result.stats_after["scheduler"]
    sched_before = result.stats_before["scheduler"]
    rejected = sum(
        sched_after[key] - sched_before[key] for key in ("rejected_total", "rejected_graph_total")
    )
    outcome.layer("scheduler.rejected", rejected, "count", 1)
    rows = [u["row"] for u in result.updates if u["row"]]
    p50, n = measure.percentile([row["seconds"] * 1000.0 for row in rows], 50)
    outcome.layer("registry.update_ms_p50", p50, "ms", n)
    shares = [row["affected_subtrees"] / row["subtrees_total"] for row in rows]
    share, n = measure.mean(shares)
    outcome.layer("delta.affected_share", share, "1", n)
    late = [max(0.0, u["sent"] - u["due"]) * 1000.0 for u in result.updates]
    outcome.layer("writer.late_ms_max", max(late, default=0.0), "ms", len(late))
    outcome.layer("server.ready_s", _median(result.ready_s), "s", len(result.ready_s))
    outcome.layer("server.import_s", _median(result.import_s), "s", len(result.import_s))
    for stage in ("fingerprint", "catalog", "positions", "histogram"):
        values = result.stage_s.get(stage, [])
        outcome.layer(f"build.stage_{stage}_s", _median(values), "s", len(values))


def build_counters(outcome, report) -> None:
    for name in (
        "http.handler_ms_mean", "http.wire_ms_mean", "scheduler.wait_ms_mean",
        "scheduler.batch_ms_mean", "scheduler.coalesced_mean", "registry.update_ms_p50",
    ):
        unit = "1" if name.endswith("coalesced_mean") else "ms"
        outcome.layer(name, 0.0, unit, 0)
    outcome.layer("scheduler.batches", 0, "count", 1)
    outcome.layer("scheduler.rejected", 0, "count", 1)
    shares = [u["affected"] / u["total"] for u in report["updates"]]
    share, n = measure.mean(shares)
    outcome.layer("delta.affected_share", share, "1", n)
    outcome.layer("writer.late_ms_max", 0.0, "ms", 0)
    setups = report["setup_s"]
    outcome.layer("server.ready_s", _median(setups), "s", len(setups))
    imports = [s - b for s, b in zip(setups, report["first_build_s"])]
    outcome.layer("server.import_s", _median(imports), "s", len(imports))
    for stage in ("fingerprint", "catalog", "positions", "histogram"):
        values = [row[stage] for row in report["stages"]]
        outcome.layer(f"build.stage_{stage}_s", _median(values), "s", len(values))


# ----------------------------------------------------------------------
# spans (traced pass)
# ----------------------------------------------------------------------
class SpanIndex:
    """Closed spans grouped by name and by parent."""

    def __init__(self, spans: list) -> None:
        self.spans = [s for s in spans if s[END] is not None]
        self.by_name: dict[str, list] = {}
        self.children: dict[int, list] = {}
        for span in self.spans:
            self.by_name.setdefault(span[NAME], []).append(span)
            self.children.setdefault(span[PARENT], []).append(span)

    def named(self, name: str, window=None, **attrs) -> list:
        out = []
        for span in self.by_name.get(name, []):
            if window is not None and not window[0] <= span[START] <= window[1]:
                continue
            if all(span[ATTRS].get(k) == v for k, v in attrs.items()):
                out.append(span)
        return out

    def residual(self, span) -> float:
        """Time inside ``span`` that no leaf span beneath it accounts for."""
        leaves, stack = [], list(self.children.get(span[ID], []))
        while stack:
            child = stack.pop()
            below = self.children.get(child[ID], [])
            if below:
                stack.extend(below)
            else:
                leaves.append((child[START], child[END]))
        return measure.self_time(span[START], span[END], leaves)

    def self_time(self, span) -> float:
        kids = [(c[START], c[END]) for c in self.children.get(span[ID], [])]
        return measure.self_time(span[START], span[END], kids)


def _ms(span) -> float:
    return (span[END] - span[START]) * 1000.0


def _p50(outcome, name: str, spans: list, scale: float = 1.0, unit: str = "ms") -> None:
    value, n = measure.percentile([_ms(s) * scale for s in spans], 50)
    outcome.layer(name, value, unit, n)


def _per_path(outcome, name: str, spans: list) -> None:
    paths = sum(s[ATTRS].get("paths", 0) for s in spans)
    total_us = sum(_ms(s) for s in spans) * 1000.0
    outcome.layer(name, total_us / paths if paths else 0.0, "us", len(spans))


def span_layers(outcome, spans: list, update_parent: str, read_spans=None, window=None) -> None:
    """Per-layer metrics from a traced pass.

    The read path's figures come from ``read_spans`` (default: ``spans``)
    that start inside ``window`` (default: any time); the rest from ``spans``.
    """
    index = SpanIndex(spans)
    reads = index if read_spans is None else SpanIndex(read_spans)
    requests = reads.named("http.request", window, path="/v1/estimate")
    self_ms, n = measure.mean([reads.self_time(s) * 1000.0 for s in requests])
    outcome.layer("http.self_ms_mean", self_ms, "ms", n)
    _p50(outcome, "scheduler.turnaround_ms_p50", reads.named("scheduler.turnaround", window))
    _p50(outcome, "registry.get_us_p50", reads.named("registry.get", window), 1000.0, "us")
    _per_path(
        outcome, "session.estimate_us_per_path", reads.named("session.estimate_batch", window)
    )
    _per_path(
        outcome, "ordering.rank_us_per_path",
        reads.named("ordering.index_array", window, full=False),
    )
    _p50(outcome, "histogram.lookup_us_p50", reads.named("histogram.estimate_indices", window),
         1000.0, "us")

    cold = index.named("session.build", warm=False)
    updates = index.named("session.update")
    _p50(outcome, "session.build_ms_p50", cold)
    _p50(outcome, "session.update_ms_p50", updates)
    digests = index.named("fingerprint.graph_digest")
    _p50(outcome, "fingerprint.digest_ms_p50", digests)
    builds_and_updates = len(index.named("session.build")) + len(updates)
    outcome.layer(
        "fingerprint.calls_per_op",
        len(digests) / builds_and_updates if builds_and_updates else 0.0,
        "1",
        builds_and_updates,
    )
    _p50(outcome, "paths.catalog_build_ms_p50", index.named("paths.from_graph"))
    _p50(outcome, "paths.apply_delta_ms_p50", index.named("paths.apply_delta"))
    _p50(outcome, "delta.analysis_ms_p50", index.named("delta.affected_first_labels"))
    _p50(outcome, "ordering.make_ms_p50", index.named("ordering.make_ordering"))
    _p50(outcome, "ordering.index_array_ms_p50", index.named("ordering.index_array", full=True))
    _p50(outcome, "histogram.build_ms_p50", index.named("histogram.build_histogram"))
    stores = index.named("cache.store")
    _p50(outcome, "cache.store_ms_p50", stores)
    writers = len(cold) + len(updates)
    outcome.layer(
        "cache.bytes_per_op",
        sum(s[ATTRS].get("bytes", 0) for s in stores) / writers if writers else 0.0,
        "B",
        writers,
    )
    _p50(outcome, "cache.load_ms_p50", index.named("cache.load", hit=True))

    for metric, parents in (
        ("trace.residual_build_share", cold),
        ("trace.residual_update_share", index.named(update_parent)),
    ):
        shares = [index.residual(s) / (s[END] - s[START]) for s in parents if s[END] > s[START]]
        value, n = measure.percentile(shares, 50)
        outcome.layer(metric, value, "1", n)
