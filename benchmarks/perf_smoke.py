"""Perf-smoke guard: fail CI when scan virtual time regresses.

Runs a small cold TPC-H scan workload (Q1 + Q6 at SF 0.004, the engine
as shipped: ``arc2q``, pipelined prefetch, ranged GETs) on the
deterministic virtual clock and compares the scan virtual time and
object-store GET count against the committed baseline in
``perf_smoke_baseline.json`` (``DatabaseConfig.paper()`` measures 225.4 s
and 202 GETs on the same workload).

The simulation is deterministic, so the baseline is exact on any host;
the comparison still allows a small tolerance so that intentional,
reviewed timing-model changes only need a baseline refresh when they
actually move the numbers.

Usage:
    PYTHONPATH=src python benchmarks/perf_smoke.py                  # check
    PYTHONPATH=src python benchmarks/perf_smoke.py --write-baseline # refresh

Exit status 1 on regression (or missing baseline), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.configs import load_engine
from repro.tpch import power_run

BASELINE_PATH = pathlib.Path(__file__).parent / "perf_smoke_baseline.json"

SCALE_FACTOR = 0.004
INSTANCE_TYPE = "m5ad.24xlarge"
QUERY_NUMBERS = (1, 6)
# Virtual-seconds tolerance: fail only on a >2% scan-time regression.
TOLERANCE = 0.02


def run_workload() -> "dict":
    db, __store, load_seconds = load_engine(
        INSTANCE_TYPE, "s3", SCALE_FACTOR, True
    )
    assert db.object_store is not None
    db.node.invalidate_caches()
    if db.ocm is not None:
        db.ocm.invalidate_all()
    before = db.object_store.metrics.snapshot()
    started = db.clock.now()
    times = power_run(db, SCALE_FACTOR, query_numbers=list(QUERY_NUMBERS))
    after = db.object_store.metrics.snapshot()
    return {
        "scale_factor": SCALE_FACTOR,
        "instance_type": INSTANCE_TYPE,
        "query_numbers": list(QUERY_NUMBERS),
        "load_virtual_seconds": round(load_seconds, 6),
        "scan_virtual_seconds": round(db.clock.now() - started, 6),
        "query_virtual_seconds": {
            f"Q{q}": round(seconds, 6) for q, seconds in sorted(times.items())
        },
        "get_requests": after.get("get_requests", 0.0)
        - before.get("get_requests", 0.0),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"write the current numbers to {BASELINE_PATH.name} and exit",
    )
    args = parser.parse_args(argv)

    current = run_workload()
    if args.write_baseline:
        BASELINE_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"ERROR: no baseline at {BASELINE_PATH}; "
              "run with --write-baseline and commit the result.")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())

    base_scan = baseline["scan_virtual_seconds"]
    cur_scan = current["scan_virtual_seconds"]
    ratio = cur_scan / base_scan if base_scan else float("inf")
    base_gets = baseline["get_requests"]
    cur_gets = current["get_requests"]

    print(f"scan virtual seconds: baseline {base_scan:.3f}  "
          f"current {cur_scan:.3f}  (x{ratio:.4f})")
    print(f"object-store GETs:    baseline {base_gets:.0f}  "
          f"current {cur_gets:.0f}")

    failed = False
    if ratio > 1.0 + TOLERANCE:
        print(f"FAIL: scan virtual time regressed by {ratio - 1:.1%} "
              f"(tolerance {TOLERANCE:.0%})")
        failed = True
    if base_gets and cur_gets > base_gets * (1.0 + TOLERANCE):
        print(f"FAIL: GET request count regressed "
              f"({base_gets:.0f} -> {cur_gets:.0f})")
        failed = True
    if not failed:
        print("OK: no scan-time regression")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
