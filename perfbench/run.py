"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # all four workloads, seed 1, 10 s each

Workloads: serve-point, serve-bulk, update-mixed (each against a real
``repro serve --workers 1`` process) and build (the library's build API in
a worker process).  ``README.md`` here records why each exists, which
ones ``BENCHMARK.json`` gates, and which per-layer figure should move
which end-to-end figure.

The report lists every metric with its unit and sample count, then the
ops attempted and failed.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1`` (which adds a traced pass after the untraced one).  A wrong
answer, a non-2xx answer or a dropped connection fails an op; any failed
op makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys

WORK_ROOT = ".perfbench-work"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, name: str) -> tuple[object, dict]:
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    work = os.path.abspath(os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    outcome = workloads.Outcome()
    # The traced pass needs a sample of every span, not steady medians.
    traced_seconds = args.seconds / 2
    try:
        prepared = workloads.prepare(workload, args.seed, args.seconds, work)
        # Everything prepared so far lives for the whole run: keep the
        # client's collector from rescanning it between timed requests.
        gc.collect()
        gc.freeze()
        if workload.kind == "build":
            report = workloads.run_build_pass(
                prepared, args.seconds, traced=False, setups=workloads.SETUPS
            )
            check_build(outcome, prepared, report)
            extra = layers.build_end_to_end(outcome, report)
            layers.build_counters(outcome, report)
            if args.trace:
                traced = workloads.run_build_pass(
                    prepared, traced_seconds, traced=True, setups=1
                )
                check_build(workloads.Outcome(tally=outcome.tally), prepared, traced)
                # The worker's only estimates are the probe set's, after its
                # timed phase: no window, so the read-path layers count them.
                layers.span_layers(outcome, traced["spans"], "session.update")
                overhead = p50_ratio(traced["cold_ms"], report["cold_ms"])
                outcome.layer("trace.overhead", overhead, "1", len(traced["cold_ms"]))
        else:
            result = workloads.run_server_pass(
                prepared, outcome, args.seconds, traced=False, setups=workloads.SETUPS
            )
            extra = layers.server_end_to_end(outcome, result)
            layers.server_counters(outcome, result)
            if args.trace:
                traced = workloads.run_server_pass(
                    prepared, workloads.Outcome(tally=outcome.tally), traced_seconds,
                    traced=True, setups=1,
                )
                layers.span_layers(
                    outcome, traced.spans, "registry.update_graph",
                    traced.read_spans, traced.read_window,
                )
                overhead = p50_ratio(
                    [e.ms for _, e in traced.reads], [e.ms for _, e in result.reads]
                )
                outcome.layer("trace.overhead", overhead, "1", len(traced.reads))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    return outcome, extra


def p50_ratio(traced: list, plain: list) -> float:
    import measure

    traced_p50, _ = measure.percentile(traced, 50)
    plain_p50, _ = measure.percentile(plain, 50)
    return traced_p50 / plain_p50 if plain_p50 else 0.0


def check_build(outcome, prepared, report) -> None:
    """The built sessions (cold and warm) must answer the probe set as the reference."""
    import numpy as np

    import workloads

    tally = outcome.tally
    reference = prepared.reference
    for kind in ("cold", "warm"):
        served = report[f"{kind}_estimates"]
        wrong = [
            p for p, v in zip(prepared.probes, served) if float(v) != reference.value(0, p)
        ]
        tally.op(
            not wrong and len(served) == len(prepared.probes),
            f"{kind} build: {len(wrong)} probe estimates differ from the reference",
        )
    for hit in report["warm_hits"]:
        tally.op(hit, "warm build missed the artifact cache")
    for update in report["updates"]:
        tally.op(
            update["additions"] == 2 and update["removals"] == 2,
            f"update applied {update['additions']}+/{update['removals']}-",
        )
    for ms in report["cold_ms"]:
        tally.op(ms > 0, "cold build took no time")
    workloads.record_accuracy(
        outcome, prepared, np.asarray(report["cold_estimates"], dtype=np.float64),
        reference.session(0),
    )


def print_report(name: str, outcome, extra: dict) -> None:
    print(f"# workload {name}")
    for title, metrics in (("end-to-end", outcome.end_to_end), ("per-layer", outcome.per_layer)):
        print(f"## {title}")
        for metric, m in metrics.items():
            print(f"{metric:34s} {m.value:14.6g} {m.unit:6s} n={m.samples}")
    p99, n = extra["latency_p99_ms"]
    print(f"{'latency_p99_ms (report only)':34s} {p99:14.6g} {'ms':6s} n={n}")
    tally = outcome.tally
    print(f"ops attempted={tally.attempted} failed={tally.failed}")
    for problem in tally.problems:
        print(f"failed op: {problem}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(root, "src"), here]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    all_correct = True
    for name in names:
        outcome, extra = run(args, name)
        print_report(name, outcome, extra)
        metrics = outcome.per_layer if args.trace else outcome.end_to_end
        correct = outcome.tally.failed == 0
        all_correct = all_correct and correct
        print(json.dumps({
            "correct": correct,
            "attempted": outcome.tally.attempted,
            "failed": outcome.tally.failed,
            "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
        }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
