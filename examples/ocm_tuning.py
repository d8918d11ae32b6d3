"""Sizing the Object Cache Manager: hit rates vs query time.

Sweeps the OCM's capacity for a fixed TPC-H workload and shows the
trade-off the paper's Table 5 and Figure 6 describe: a larger local SSD
cache converts S3 GETs into local reads, improving both query time and
the request bill.  Each capacity runs twice: under ``DatabaseConfig.paper()``
(single LRU, one GET per page — what Table 5 measured) and on the engine
as shipped (scan-resistant ``arc2q``, pipelined scans, ranged GETs), which
needs fewer billed GETs at every size.

A second table is the case capacity alone cannot fix: Q6 repeated over an
OCM that holds 60 % of its scan.  The single LRU evicts every page just
before the next round wants it; ``arc2q`` recognises the loop in round 2
and from round 3 keeps its protected share (0.8 x 0.6 of the scan) on the
SSD.

Run with:  python examples/ocm_tuning.py
"""

from repro.bench.configs import load_engine
from repro.bench.report import format_table, geomean
from repro.columnar.query import QueryContext
from repro.engine import PAPER_IO
from repro.tpch import power_run
from repro.tpch.queries import run_query

SCALE_FACTOR = 0.005
QUERIES = [1, 3, 6, 9, 14, 19]
LOOP_ROUNDS = 6


def cold_caches(db) -> None:
    db.buffer.invalidate_all()
    db.ocm.drain_all()
    db.ocm.invalidate_all()


def scan_q6(db) -> None:
    with QueryContext(db, prefetch_window=32) as ctx:
        run_query(ctx, 6, SCALE_FACTOR)
    db.buffer.invalidate_all()  # the next round re-reads through the OCM


def repeated_scan() -> None:
    db, __, ___ = load_engine("m5ad.24xlarge", "s3", SCALE_FACTOR)
    cold_caches(db)
    scan_q6(db)
    footprint = db.ocm.used_bytes
    rows = []
    for policy in ("lru", "arc2q"):
        db, __, ___ = load_engine(
            "m5ad.24xlarge", "s3", SCALE_FACTOR, ocm_policy=policy,
            ocm_capacity_bytes=int(footprint * 0.6),
        )
        cold_caches(db)
        per_round = []
        for __ in range(LOOP_ROUNDS):
            before = db.ocm.stats()
            scan_q6(db)
            after = db.ocm.stats()
            hits = int(after["hits"] - before["hits"])
            pages = hits + int(after["misses"] - before["misses"])
            per_round.append(f"{hits}/{pages}")
        rows.append([policy, *per_round,
                     int(after.get("policy_loop_admissions", 0))])
    print(f"\nQ6 x {LOOP_ROUNDS}, OCM at 60% of its {footprint // 1024} KiB "
          "scan: OCM hits / pages read per round")
    print(format_table(
        ["policy", *(f"round {i + 1}" for i in range(LOOP_ROUNDS)),
         "loop admissions"],
        rows,
    ))


def main() -> None:
    rows = []
    for capacity_kib in (256, 512, 1024, 2048, 8192):
        for label, fields in (("paper()", PAPER_IO), ("default", {})):
            db, store, __ = load_engine(
                "m5ad.24xlarge", "s3", scale_factor=SCALE_FACTOR,
                ocm_capacity_bytes=capacity_kib * 1024, **fields
            )
            cold_caches(db)
            gets_before = db.object_store.metrics.snapshot().get(
                "get_requests", 0.0)
            times = power_run(db, SCALE_FACTOR, query_numbers=QUERIES)
            stats = db.ocm.stats()
            lookups = stats["hits"] + stats["misses"]
            hit_rate = stats["hits"] / lookups if lookups else 0.0
            rows.append([
                f"{capacity_kib} KiB",
                label,
                geomean(times.values()),
                f"{hit_rate:.1%}",
                int(stats["evictions"]),
                int(db.object_store.metrics.snapshot()["get_requests"]
                    - gets_before),
            ])
    print(format_table(
        ["OCM capacity", "profile", "query geomean (s)", "hit rate",
         "evictions", "billed S3 GETs"],
        rows,
    ))
    print(
        "\nPaper reference points (Table 5, m5ad.24xlarge): 74.5% hits,"
        "\n~25% geomean improvement, and 2.8M averted GETs worth $1.12."
    )
    repeated_scan()


if __name__ == "__main__":
    main()
