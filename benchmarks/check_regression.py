#!/usr/bin/env python
"""Gate a fresh benchmark run against the committed ``BENCH_engine.json``.

The CI ``bench-regression`` job reruns ``run_all.py --quick`` and then calls
this script with the *committed* document as the baseline and the fresh one
as the current run.  Two things are checked:

* every floor **recorded in the baseline** (batch ≥ 10×, sparse batch
  ≥ 3× the per-path loop,
  dense cold-build peak ≤ 16 MiB traced, coalesced ≥ 5×, delta ≥ 5×,
  sparse serve RSS
  < 1 GiB, chaos availability ≥ 99%, open-circuit fast-fail < 10 ms,
  pre-fork serving ≥ 2× single-process QPS with p99 ≤ 1.5×, extra mmap
  worker ≤ 25% of a private catalog copy, remote warm-start ≥ 10×,
  remote availability ≥ 99% under store faults, open remote breaker
  fast-fail < 10 ms, ...)
  still holds for the current numbers — so a PR cannot silently relax a
  shipped floor by shrinking the constant in ``run_all.py``;
* the correctness invariants (batch == loop, patched == cold, warm start
  from cache, single-flight, byte-identical sparse histogram boundaries)
  still hold.

Raw wall-clock numbers are *not* compared across documents — the baseline
was measured on a different machine, so only the recorded floors and the
current run's own ratios are meaningful.  A drift table is printed for
humans; it also lists the floors retired in ``run_all.RETIRED_FLOORS``
(a baseline that still records them is not gated on them), and prints a
floor the current run recorded as not enforced on its host (the ``load``
floors below 4 cores) as ``UNMEASURED (<reason>)`` rather than as a
number beside its floor.  Exit code 1
on any violated floor, with one readable line per failure printed first.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_engine.json --current BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from run_all import (  # noqa: E402
    RETIRED_FLOORS,
    collect_floor_failures,
    unmeasured_reason,
)

#: (section, metric, floor_key, direction) — the recorded floors carried by
#: both documents.  ``direction`` is ">=" (floor) or "<=" (ceiling).
FLOORS: tuple[tuple[str, str, str, str], ...] = (
    ("engine", "batch_speedup", "batch_speedup_floor", ">="),
    ("engine", "sparse_batch_speedup", "sparse_batch_speedup_floor", ">="),
    ("catalog", "build_peak_mib", "build_peak_mib_ceiling", "<="),
    ("serving", "coalesced_speedup", "coalesced_speedup_floor", ">="),
    ("delta", "incremental_speedup", "incremental_speedup_floor", ">="),
    ("sparse", "serve_max_rss_bytes", "serve_rss_ceiling_bytes", "<="),
    ("chaos", "availability", "availability_floor", ">="),
    ("chaos", "circuit_fast_fail_seconds", "fast_fail_ceiling_seconds", "<="),
    ("obs", "overhead_ratio", "overhead_ratio_floor", ">="),
    ("load", "multi_speedup", "multi_speedup_floor", ">="),
    ("load", "p99_ratio", "p99_ratio_ceiling", "<="),
    (
        "load",
        "extra_worker_rss_fraction",
        "extra_worker_rss_fraction_ceiling",
        "<=",
    ),
    ("remote", "warm_speedup", "warm_speedup_floor", ">="),
    ("remote", "availability", "availability_floor", ">="),
    (
        "remote",
        "breaker_fast_fail_seconds",
        "fast_fail_ceiling_seconds",
        "<=",
    ),
)


def load_document(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"regression check: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def merge_baseline_floors(baseline: dict, current: dict) -> dict:
    """The current document with the *baseline's* recorded floors grafted in.

    ``collect_floor_failures`` reads each floor from the document it checks;
    substituting the committed values means a PR that lowers a floor
    constant still gets gated against the floor it shipped with.
    """
    merged = json.loads(json.dumps(current))  # deep copy, JSON-shaped
    for section, _, floor_key, _ in FLOORS:
        base_section = baseline.get(section) or {}
        if floor_key in base_section and section in merged:
            merged[section][floor_key] = base_section[floor_key]
    return merged


def _fmt(value: object) -> str:
    return f"{value:.2f}" if isinstance(value, (int, float)) else str(value)


def drift_table(baseline: dict, current: dict) -> list[str]:
    """Human-readable baseline-vs-current rows (informational only)."""
    rows = []
    for section, metric, floor_key, direction in FLOORS:
        base_value = (baseline.get(section) or {}).get(metric)
        new_value = (current.get(section) or {}).get(metric)
        floor = (baseline.get(section) or {}).get(
            floor_key, (current.get(section) or {}).get(floor_key)
        )
        reason = unmeasured_reason(current, section, metric)
        if reason is not None:
            # Recorded but not enforced on this host: its number is no pass.
            rows.append(
                f"{section}.{metric}: UNMEASURED ({reason}) "
                f"({direction} {_fmt(floor)})"
            )
            continue
        if new_value is None:
            # A floor the baseline predates, or one measured as null here.
            rows.append(f"{section}.{metric}: not measured")
            continue
        rows.append(
            f"{section}.{metric}: {_fmt(new_value)} "
            f"(baseline {_fmt(base_value)}, {direction} {_fmt(floor)})"
        )
    for name, reason in RETIRED_FLOORS.items():
        rows.append(f"{name}: retired ({reason})")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default="BENCH_engine.json",
        help="committed benchmark document (floor source)",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="freshly measured benchmark document to gate",
    )
    args = parser.parse_args(argv)

    baseline = load_document(Path(args.baseline))
    current = load_document(Path(args.current))

    for name, document in (("baseline", baseline), ("current", current)):
        for section, floor_name in (
            ("ordering", "sparse-batch"),
            ("delta", "delta"),
            ("sparse", "sparse-catalog"),
            ("chaos", "chaos-smoke"),
            ("obs", "observability"),
            ("load", "serving-load"),
            ("remote", "remote-artifact-tier"),
        ):
            if section not in document:
                print(
                    f"regression check: {name} document predates the "
                    f"{floor_name} floors (schema {document.get('schema')}); "
                    "regenerate it with benchmarks/run_all.py",
                    file=sys.stderr,
                )
                return 2

    failures = collect_floor_failures(merge_baseline_floors(baseline, current))
    for failure in failures:
        print(f"floor regression: {failure}", file=sys.stderr)
    for row in drift_table(baseline, current):
        print(row)
    if failures:
        print(f"{len(failures)} floor(s) regressed", file=sys.stderr)
        return 1
    print("all recorded floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
