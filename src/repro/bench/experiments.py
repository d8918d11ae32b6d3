"""Experiment drivers: one function per table/figure of the paper.

Every driver returns plain dictionaries/lists so benchmarks and examples
can both render them.  Results are expressed in *virtual seconds*, which
the rate-scaling scheme (see :mod:`repro.bench.configs`) makes directly
comparable to the paper's SF-1000 numbers in shape.

The table and figure drivers reproduce the paper, so they run
``DatabaseConfig.paper()``'s fields (``PAPER_IO``) — its per-page I/O path
— not the batched path the engine ships with.

Query phases start from a cold buffer/OCM (the paper's query experiments
show cold-cache warm-up behaviour, so their runs began with empty caches).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.configs import (
    BENCH_SCALE_FACTOR,
    PAPER_SCALE_FACTOR,
    load_engine,
)
from repro.bench.report import geomean
from repro.costs.pricing import DEFAULT_PRICES
from repro.engine import PAPER_IO, Database, paper_units
from repro.tpch import power_run
from repro.tpch.runner import throughput_streams

GIB = 1024 ** 3
# Average compressed object size in the real system (~520 GB over ~1.4M
# 512 KB pages); used to convert scaled byte volumes into request counts
# for the Table 3 cost model.
REAL_OBJECT_BYTES = 370 * 1024


def _cold_caches(db: Database) -> None:
    db.buffer.invalidate_all()
    if db.ocm is not None:
        db.ocm.drain_all()
        db.ocm.invalidate_all()


class VolumeRun:
    """One load + power run on one volume/instance configuration, under
    the ``paper()`` profile (explicit ``overrides`` win)."""

    def __init__(
        self,
        volume: str,
        instance_type: str = "m5ad.24xlarge",
        ocm_enabled: bool = True,
        scale_factor: float = BENCH_SCALE_FACTOR,
        **overrides: object,
    ) -> None:
        self.volume = volume
        self.instance_type = instance_type
        self.scale_factor = scale_factor
        self.db, self.store, self.load_seconds = load_engine(
            instance_type, volume, scale_factor, ocm_enabled,
            **{**PAPER_IO, **overrides}
        )
        self._load_requests = dict(
            puts=self._request_bytes("put_bytes"),
            gets=self._request_bytes("get_bytes"),
        )
        _cold_caches(self.db)
        query_started = self.db.clock.now()
        self.query_times = power_run(self.db, scale_factor)
        self.query_seconds = self.db.clock.now() - query_started

    def _request_bytes(self, counter: str) -> float:
        if self.db.object_store is None:
            return 0.0
        return self.db.object_store.metrics.snapshot().get(counter, 0.0)

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #

    @property
    def geomean_seconds(self) -> float:
        return geomean(self.query_times.values())

    def scaled_data_bytes(self) -> float:
        """Data-at-rest extrapolated to the paper's SF 1000."""
        return self.db.user_data_bytes() * (
            PAPER_SCALE_FACTOR / self.scale_factor
        )

    def monthly_storage_cost(self) -> float:
        volume_key = {"s3": "s3", "ebs": "ebs-gp2", "efs": "efs"}[self.volume]
        return DEFAULT_PRICES.storage_price(volume_key).monthly_cost(
            int(self.scaled_data_bytes())
        )

    def _request_cost(self, phase: str) -> float:
        """S3 request charges for the load or query phase (scaled)."""
        if self.db.object_store is None:
            return 0.0
        snapshot = self.db.object_store.metrics.snapshot()
        ratio = PAPER_SCALE_FACTOR / self.scale_factor
        if phase == "load":
            put_bytes = self._load_requests["puts"]
            get_bytes = self._load_requests["gets"]
        else:
            put_bytes = snapshot.get("put_bytes", 0.0) - self._load_requests["puts"]
            get_bytes = snapshot.get("get_bytes", 0.0) - self._load_requests["gets"]
        puts = int(put_bytes * ratio / REAL_OBJECT_BYTES)
        gets = int(get_bytes * ratio / REAL_OBJECT_BYTES)
        return DEFAULT_PRICES.request_price("s3").cost(puts=puts, gets=gets)

    def compute_cost(self, phase: str) -> float:
        """EC2 + request cost of the load or query phase (Table 3)."""
        seconds = self.load_seconds if phase == "load" else self.query_seconds
        ec2 = DEFAULT_PRICES.instance_rate(self.instance_type) * seconds / 3600.0
        return ec2 + self._request_cost(phase)

    def ocm_stats(self) -> "Dict[str, float]":
        if self.db.ocm is None:
            return {}
        return self.db.ocm.stats()


# ---------------------------------------------------------------------- #
# Tables 2-4: the three-volume comparison
# ---------------------------------------------------------------------- #

def run_volume_comparison(
    scale_factor: float = BENCH_SCALE_FACTOR,
) -> "Dict[str, VolumeRun]":
    return {
        volume: VolumeRun(volume, scale_factor=scale_factor)
        for volume in ("s3", "ebs", "efs")
    }


def table2_rows(runs: "Dict[str, VolumeRun]") -> "List[List[object]]":
    labels = {"s3": "AWS S3", "ebs": "AWS EBS", "efs": "AWS EFS"}
    rows = []
    for volume in ("s3", "ebs", "efs"):
        run = runs[volume]
        row: "List[object]" = [labels[volume], run.load_seconds]
        row.extend(run.query_times[q] for q in sorted(run.query_times))
        row.append(run.geomean_seconds)
        rows.append(row)
    return rows


def table3_rows(runs: "Dict[str, VolumeRun]") -> "List[List[object]]":
    labels = {"s3": "AWS S3", "ebs": "AWS EBS", "efs": "AWS EFS"}
    return [
        [labels[v], runs[v].compute_cost("load"), runs[v].compute_cost("query")]
        for v in ("s3", "ebs", "efs")
    ]


def table4_rows(runs: "Dict[str, VolumeRun]") -> "List[List[object]]":
    labels = {"s3": "AWS S3", "ebs": "AWS EBS", "efs": "AWS EFS"}
    return [
        [labels[v], runs[v].monthly_storage_cost()] for v in ("s3", "ebs", "efs")
    ]


# ---------------------------------------------------------------------- #
# Table 5 + Figure 6: OCM effectiveness
# ---------------------------------------------------------------------- #

def run_ocm_experiment(
    scale_factor: float = BENCH_SCALE_FACTOR,
) -> "Dict[str, VolumeRun]":
    """Four runs: {instance} x {OCM on/off}, queries from cold caches."""
    out: Dict[str, VolumeRun] = {}
    for instance in ("m5ad.4xlarge", "m5ad.24xlarge"):
        for ocm in (True, False):
            key = f"{instance}/{'ocm' if ocm else 'noocm'}"
            out[key] = VolumeRun("s3", instance_type=instance,
                                 ocm_enabled=ocm, scale_factor=scale_factor)
    return out


def table5_rows(run: VolumeRun) -> "List[List[object]]":
    stats = run.ocm_stats()
    hits = stats.get("hits", 0.0)
    misses = stats.get("misses", 0.0)
    total = hits + misses
    return [
        ["Cache Misses", int(misses),
         f"{100 * misses / total:.1f}%" if total else "n/a"],
        ["Cache Hits", int(hits),
         f"{100 * hits / total:.1f}%" if total else "n/a"],
        ["Evictions", int(stats.get("evictions", 0.0)), ""],
    ]


# ---------------------------------------------------------------------- #
# Figure 7: scale-up
# ---------------------------------------------------------------------- #

def run_scale_up(
    scale_factor: float = BENCH_SCALE_FACTOR,
) -> "List[Dict[str, object]]":
    points = []
    for instance in ("m5ad.4xlarge", "m5ad.12xlarge", "m5ad.24xlarge"):
        run = VolumeRun("s3", instance_type=instance,
                        scale_factor=scale_factor)
        points.append(
            {
                "instance": instance,
                "cpus": run.db.config.vcpus,
                "load": run.load_seconds,
                "queries": run.query_seconds,
                "total": run.load_seconds + run.query_seconds,
                "run": run,
            }
        )
    return points


# ---------------------------------------------------------------------- #
# Figure 8: NIC bandwidth during load
# ---------------------------------------------------------------------- #

def figure8_series(
    run: VolumeRun, bucket_seconds: float = 60.0
) -> "List[Tuple[float, float]]":
    """(time, Gbit/s) during the load, expressed at paper-scale rates.

    Derived from the object store's transfer completions plus the input
    stream, both of which flow through the instance NIC pipe; the curve is
    therefore bounded by what the pipe actually sustained.
    """
    assert run.db.object_store is not None
    samples = [
        (when, value)
        for when, value in run.db.object_store.metrics.series(
            "net_bytes"
        ).samples
        if when <= run.load_seconds
    ]
    # The load input also streams through the NIC, continuously.
    input_total = sum(
        value for __, value in run.store.metrics.series("input_bytes").samples
    )
    buckets: Dict[int, float] = {}
    n_buckets = max(1, int(run.load_seconds // bucket_seconds))
    for when, value in samples:
        index = int(when // bucket_seconds)
        buckets[index] = buckets.get(index, 0.0) + value
    for index in range(n_buckets):
        buckets[index] = buckets.get(index, 0.0) + input_total / n_buckets
    cfg = run.db.config
    nic_gbits_ceiling = paper_units(cfg, run.db.nic.rate) * 8 / 1e9
    out = []
    for index in sorted(buckets):
        gbits = paper_units(cfg, buckets[index] * 8 / bucket_seconds) / 1e9
        out.append((index * bucket_seconds, min(gbits, nic_gbits_ceiling)))
    return out


# ---------------------------------------------------------------------- #
# OCM policy ablation (Table 5 / Figure 6 companion)
# ---------------------------------------------------------------------- #

POLICY_ABLATION_CONFIGS: "Dict[str, Dict[str, object]]" = {
    "lru": {},
    "arc2q": {"ocm_policy": "arc2q"},
}


def run_policy_ablation(
    scale_factor: float = BENCH_SCALE_FACTOR,
    instance_type: str = "m5ad.24xlarge",
) -> "Dict[str, VolumeRun]":
    """The TPC-H query pass under each OCM eviction policy.

    ``lru`` is the paper's cache, ``arc2q`` the scan-resistant policy.
    """
    return {
        name: VolumeRun("s3", instance_type=instance_type,
                        scale_factor=scale_factor, **overrides)
        for name, overrides in POLICY_ABLATION_CONFIGS.items()
    }


def policy_ablation_rows(
    runs: "Dict[str, VolumeRun]",
) -> "List[List[object]]":
    """Per-policy hit ratio and scan latency summary rows."""
    rows: "List[List[object]]" = []
    for name, run in runs.items():
        stats = run.ocm_stats()
        hits = stats.get("hits", 0.0)
        misses = stats.get("misses", 0.0)
        total = hits + misses
        rows.append([
            name,
            f"{hits / total:.1%}" if total else "n/a",
            int(stats.get("evictions", 0.0)),
            run.geomean_seconds,
            run.query_seconds,
        ])
    return rows


# ---------------------------------------------------------------------- #
# Figure 9: scale-out
# ---------------------------------------------------------------------- #

def run_scale_out(
    node_counts: "Tuple[int, ...]" = (2, 4, 8),
    n_streams: int = 8,
    scale_factor: float = BENCH_SCALE_FACTOR,
) -> "List[Dict[str, object]]":
    """Throughput runs over n nodes.

    Each node is an independent single-node m5ad.4xlarge engine with its
    own bucket, caches, NIC and clock; nothing is shared between them.
    The streams are dealt round-robin, each node runs its share on its own
    timeline, and the experiment finishes when the slowest node does.
    """
    points = []
    for nodes in node_counts:
        sessions = []
        for __ in range(nodes):
            db, __store, __load = load_engine(
                "m5ad.4xlarge", "s3", scale_factor, **PAPER_IO
            )
            _cold_caches(db)
            sessions.append(db)
        total, per_node = throughput_streams(sessions, scale_factor, n_streams)
        points.append({"nodes": nodes, "total": total, "per_node": per_node})
    return points
