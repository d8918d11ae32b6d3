"""Sizing the Object Cache Manager: hit rates vs query time.

Sweeps the OCM's capacity for a fixed TPC-H workload and shows the
trade-off the paper's Table 5 and Figure 6 describe: a larger local SSD
cache converts S3 GETs into local reads, improving both query time and
the request bill.  Each capacity runs twice: under ``DatabaseConfig.paper()``
(single LRU, one GET per page — what Table 5 measured) and on the engine
as shipped (scan-resistant ``arc2q``, pipelined scans, ranged GETs), which
needs fewer billed GETs at every size.

Run with:  python examples/ocm_tuning.py
"""

from repro.bench.configs import load_engine
from repro.bench.report import format_table, geomean
from repro.engine import PAPER_IO
from repro.tpch import power_run

SCALE_FACTOR = 0.005
QUERIES = [1, 3, 6, 9, 14, 19]


def main() -> None:
    rows = []
    for capacity_kib in (256, 512, 1024, 2048, 8192):
        for label, fields in (("paper()", PAPER_IO), ("default", {})):
            db, store, __ = load_engine(
                "m5ad.24xlarge", "s3", scale_factor=SCALE_FACTOR,
                ocm_capacity_bytes=capacity_kib * 1024, **fields
            )
            db.buffer.invalidate_all()
            db.ocm.drain_all()
            db.ocm.invalidate_all()
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


if __name__ == "__main__":
    main()
