"""The benchmark gate's report: floors recorded as unenforced read UNMEASURED.

``bench_load`` records its throughput and memory floors with
``speedup_floor_enforced`` / ``rss_floor_enforced`` flags; on a host too
small to enforce them, the drift table must say so instead of printing the
measured number next to the floor as if it were a pass.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def gate():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import check_regression

        yield check_regression
    finally:
        sys.path.remove(str(BENCH_DIR))


def _document(multi_speedup: float, enforced: bool) -> dict:
    return {
        "engine": {"batch_speedup": 49.7, "batch_speedup_floor": 10.0},
        "load": {
            "cpu_count": 2,
            "workers": 2,
            "multi_speedup": multi_speedup,
            "multi_speedup_floor": 2.0,
            "speedup_floor_enforced": enforced,
            "p99_ratio": 0.93,
            "p99_ratio_ceiling": 1.5,
            "catalog_private_bytes": 16_000_000,
            "extra_worker_rss_fraction": 0.53,
            "extra_worker_rss_fraction_ceiling": 0.25,
            "rss_floor_enforced": enforced,
        },
    }


def _rows(gate, baseline: dict, current: dict) -> dict[str, str]:
    rows = {}
    for row in gate.drift_table(baseline, current):
        name, _, text = row.partition(": ")
        rows[name] = text
    return rows


def test_unenforced_floors_print_unmeasured(gate):
    baseline = _document(1.03, enforced=False)
    current = _document(1.11, enforced=False)
    rows = _rows(gate, baseline, current)
    for name in (
        "load.multi_speedup",
        "load.p99_ratio",
        "load.extra_worker_rss_fraction",
    ):
        assert rows[name].startswith("UNMEASURED ("), rows[name]
    assert "1.11" not in rows["load.multi_speedup"]
    assert "0.53" not in rows["load.extra_worker_rss_fraction"]
    assert "2 cores" in rows["load.multi_speedup"]
    assert "15 MiB" in rows["load.extra_worker_rss_fraction"]
    # The floor itself is still shown, and enforced floors keep their number.
    assert ">= 2.00" in rows["load.multi_speedup"]
    assert rows["engine.batch_speedup"].startswith("49.70")


def test_enforced_floors_print_their_value(gate):
    current = _document(2.4, enforced=True)
    rows = _rows(gate, copy.deepcopy(current), current)
    assert rows["load.multi_speedup"].startswith("2.40")
    assert "UNMEASURED" not in rows["load.extra_worker_rss_fraction"]


def test_unmeasured_reason_reads_the_current_section(gate):
    document = _document(1.0, enforced=False)
    assert gate.unmeasured_reason(document, "load", "multi_speedup")
    assert gate.unmeasured_reason(document, "engine", "batch_speedup") is None
    document["load"]["rss_floor_enforced"] = True
    assert gate.unmeasured_reason(document, "load", "extra_worker_rss_fraction") is None
