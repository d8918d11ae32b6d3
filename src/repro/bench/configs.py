"""Scaled benchmark configurations.

The paper runs TPC-H at SF 1000; a bench at SF ``sf`` sets
``rate_scale = sf / 1000`` and ``repro.engine.HARDWARE`` slows every rate
by it, so the same resource binds and virtual seconds compare, in shape,
to the paper's tables (DESIGN.md §2).

Per-instance sizing follows the paper's deployment recipe: half of RAM for
the buffer manager, all local SSDs RAID-0 for the OCM, the published NIC
bandwidth, a 1 TB gp2 volume for the EBS runs and a usage-billed EFS volume
for the EFS runs.  RAM/SSD capacities shrink with the data so cache-to-data
ratios match the paper's.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.columnar import ColumnStore
from repro.costs.instances import INSTANCE_CATALOG
from repro.engine import Database, DatabaseConfig
from repro.tpch import check_scale_factor, load_tpch

GIB = 1024 ** 3
TIB = 1024 ** 4

# Default benchmark scale factor (the paper uses SF 1000).
BENCH_SCALE_FACTOR = 0.01
PAPER_SCALE_FACTOR = 1000.0

# Base CPU throughput (ops/second at rate_scale == 1), calibrated so the
# SF-1000-equivalent load and query times land in the paper's range.
CPU_OPS_PER_SECOND = 25e6
CPU_PARALLEL_FRACTION = 0.995

BENCH_PAGE_SIZE = 16 * 1024
BENCH_PARTITIONS = 4
BENCH_ROWS_PER_PAGE = 1024

# Cache sizing divisors, calibrated against the paper's observations:
# the buffer covers a small fraction of the logical data (the paper's
# 192 GB of buffer vs ~2 TB of logical data), and the OCM's effective
# working capacity sits near the touched-data volume (Table 5's eviction
# counts put its hit rate at 74.5%).
BUFFER_DIVISOR = 1.5
BUFFER_FLOOR = 768 * 1024
OCM_DIVISOR = 30
OCM_FLOOR = 1280 * 1024


def bench_config(
    instance_type: str = "m5ad.24xlarge",
    user_volume: str = "s3",
    scale_factor: float = BENCH_SCALE_FACTOR,
    ocm_enabled: bool = True,
    **overrides: object,
) -> DatabaseConfig:
    """A DatabaseConfig mirroring one of the paper's deployments.

    The shipped engine at the paper's sizing; ``**PAPER_IO`` (from
    ``repro.engine``) among the overrides selects the paper's per-page
    I/O path (``make_engine``/``load_engine`` forward it).
    """
    check_scale_factor(scale_factor)
    instance = INSTANCE_CATALOG[instance_type]
    rate_scale = scale_factor / PAPER_SCALE_FACTOR
    size_scale = rate_scale  # capacities shrink with the data

    if user_volume == "ebs":
        volume_bytes = 1 * TIB  # the paper's 1 TB gp2 volume
    elif user_volume == "efs":
        # EFS is billed by utilization; its burst throughput tracks the
        # data stored (~0.5 TiB compressed at SF 1000, bursting ~3x).
        volume_bytes = int(1.5 * TIB)
    else:
        volume_bytes = 1 * TIB

    settings: "Dict[str, object]" = dict(
        instance_type=instance_type,
        vcpus=instance.vcpus,
        nic_gbits=instance.nic_gbits,
        buffer_capacity_bytes=max(
            BUFFER_FLOOR,
            int(instance.buffer_cache_bytes * size_scale / BUFFER_DIVISOR),
        ),
        ocm_enabled=ocm_enabled and user_volume == "s3" and instance.ssd_count > 0,
        ocm_capacity_bytes=max(
            OCM_FLOOR,
            int(instance.total_ssd_bytes * size_scale / OCM_DIVISOR),
        ),
        ocm_ssd_count=max(1, instance.ssd_count),
        user_volume=user_volume,
        user_volume_size_bytes=volume_bytes,
        page_size=BENCH_PAGE_SIZE,
        cpu_ops_per_second=CPU_OPS_PER_SECOND,
        rate_scale=rate_scale,
    )
    settings.update(overrides)  # explicit overrides win
    return DatabaseConfig(**settings)  # type: ignore[arg-type]


def make_engine(
    instance_type: str = "m5ad.24xlarge",
    user_volume: str = "s3",
    scale_factor: float = BENCH_SCALE_FACTOR,
    ocm_enabled: bool = True,
    tracer: "Optional[object]" = None,
    **overrides: object,
) -> Database:
    """Build an engine; ``tracer`` shares one Tracer across bench engines.

    A driver comparing several configurations passes the same handle to
    each ``make_engine``/``load_engine`` call so every engine's spans land
    in one trace (per-engine layers stay distinguishable via span attrs).
    """
    config = bench_config(instance_type, user_volume, scale_factor,
                          ocm_enabled, **overrides)
    database = Database(config)
    database.cpu.parallel_fraction = CPU_PARALLEL_FRACTION
    if tracer is not None:
        database.attach_tracer(tracer)
    return database


def load_engine(
    instance_type: str = "m5ad.24xlarge",
    user_volume: str = "s3",
    scale_factor: float = BENCH_SCALE_FACTOR,
    ocm_enabled: bool = True,
    tracer: "Optional[object]" = None,
    **overrides: object,
) -> "Tuple[Database, ColumnStore, float]":
    """Build an engine and load TPC-H into it; returns (db, store, load_s)."""
    database = make_engine(instance_type, user_volume, scale_factor,
                           ocm_enabled, tracer=tracer, **overrides)
    store = ColumnStore(database)
    started = database.clock.now()
    load_tpch(store, scale_factor, partitions=BENCH_PARTITIONS,
              rows_per_page=BENCH_ROWS_PER_PAGE)
    return database, store, database.clock.now() - started
