"""The chaos drill: an engine riding out a named fault schedule.

One deterministic scenario shared by the ``repro chaos`` CLI command, the
chaos benchmarks and ``examples/chaos_storm.py``.
"""

from __future__ import annotations

from typing import Dict

from repro.engine import Database, DatabaseConfig
from repro.objectstore.client import (
    CircuitBreakerConfig,
    HedgePolicy,
    RetryPolicy,
)
from repro.objectstore.errors import (
    CircuitOpenError,
    CorruptObjectError,
    RetriesExhaustedError,
)
from repro.objectstore.faults import named_schedule
from repro.objectstore.replicated import ReplicationConfig
from repro.sim.metrics import labeled_histograms, merged_histogram

REGION_NAMES = (
    "us-east-1", "us-west-2", "eu-west-1", "ap-southeast-1", "sa-east-1",
)


def run_chaos_scenario(
    schedule_name: str = "storm",
    seed: int = 0,
    start: float = 5.0,
    pages: int = 6,
    settle: float = 5.0,
    regions: int = 1,
) -> "Dict[str, object]":
    """Drive an engine through a named fault schedule; return the evidence.

    A writer keeps committing generations of pages while the schedule
    plays out; interleaved readers touch recently committed pages (cache
    hits keep working in degraded mode, misses fail fast).  After the
    schedule's horizon the caches are dropped and every committed page is
    read back from the store — the durability check.  Entirely
    deterministic for a given ``(schedule_name, seed)``.
    """
    if not 1 <= regions <= len(REGION_NAMES):
        raise ValueError(
            f"regions must be in [1, {len(REGION_NAMES)}]"
        )
    if pages < 1:
        raise ValueError(f"the drill verifies at least one page, got {pages}")
    replication = (
        ReplicationConfig(regions=REGION_NAMES[:regions])
        if regions > 1 else None
    )
    schedule = named_schedule(schedule_name, start=start)
    db = Database(DatabaseConfig(
        seed=seed,
        buffer_capacity_bytes=8 << 20,
        ocm_capacity_bytes=32 << 20,
        page_size=16 * 1024,
        fault_schedule=schedule,
        # Corruption schedules flip payload bits; without verified reads
        # the damaged bytes would flow straight into the durability check
        # as silent mismatches.  Pure availability schedules keep the
        # knob off so their byte streams stay identical to older runs.
        verify_reads=schedule.corrupting,
        replication=replication,
        breaker=CircuitBreakerConfig(failure_threshold=3, reset_timeout=2.0),
        hedge=HedgePolicy(),
        retry=RetryPolicy(max_attempts=60, initial_backoff=0.05,
                          backoff_multiplier=1.5, max_backoff=2.0,
                          jitter="decorrelated"),
    ))
    db.create_object("t")
    committed: "Dict[int, bytes]" = {}
    generation = 0
    commits_ok = 0
    commits_failed = 0
    reads_failed_fast = 0
    corrupt_detected = 0
    horizon = schedule.horizon + settle
    while db.clock.now() < horizon:
        txn = db.begin()
        staged: "Dict[int, bytes]" = {}
        try:
            for page in range(pages):
                payload = b"gen-%d-page-%d" % (generation, page)
                db.write_page(txn, "t", page, payload)
                staged[page] = payload
            db.commit(txn)
            committed.update(staged)
            commits_ok += 1
        except (CircuitOpenError, RetriesExhaustedError):
            try:
                db.rollback(txn)
            except Exception:
                pass
            commits_failed += 1
        if committed:
            # A health probe that does NOT bypass the breaker: during an
            # outage its consecutive failures open the circuit, putting
            # the OCM into degraded mode for the reads below.
            try:
                db.object_client.exists("health/probe")
            except (CircuitOpenError, RetriesExhaustedError):
                pass
            # Force reads through the OCM (and, every few generations,
            # all the way to the store) so degraded-mode cache serving
            # and hedged GETs actually get exercised.
            db.buffer.invalidate_all()
            if db.ocm is not None and generation % 5 == 4:
                db.ocm.invalidate_all()
            reader = db.begin()
            for page in sorted(committed)[:3]:
                try:
                    db.read_page(reader, "t", page)
                except (CircuitOpenError, RetriesExhaustedError):
                    reads_failed_fast += 1
                except CorruptObjectError:
                    # Detected — never served silently.  Unrepairable
                    # only when no healthy replica holds the version.
                    corrupt_detected += 1
            try:
                db.commit(reader)
            except Exception:
                db.rollback(reader)
        generation += 1
        # Fail-fast paths consume no virtual time; keep the clock moving
        # so the schedule always plays out in bounded iterations.
        db.clock.advance(0.25)
    # Recovery: drop every cache and verify committed data byte-for-byte.
    db.buffer.invalidate_all()
    if db.ocm is not None:
        db.ocm.drain_all()
        db.ocm.invalidate_all()
    mismatches = 0
    reader = db.begin()
    for page, payload in sorted(committed.items()):
        try:
            if db.read_page(reader, "t", page) != payload:
                mismatches += 1
        except CorruptObjectError:
            # The checksum caught it before any bytes reached the
            # reader; still a durability problem — the page is gone
            # unless a replica can repair it.
            corrupt_detected += 1
    db.commit(reader)
    # GET latencies live in a labeled family: the resilient client records
    # under plain `get_latency` against a single-region store but under
    # `get_latency:{region}` when replication is on.  Aggregate the whole
    # family — reading only the unlabeled name reports 0.0 for replicated
    # runs.
    client_metrics = db.object_client.metrics
    p99_by_region = {
        label or "(unlabeled)": histogram.percentile(99.0)
        for label, histogram in
        labeled_histograms(client_metrics, "get_latency").items()
        if histogram.count
    }
    return {
        "schedule": schedule_name,
        "seed": seed,
        "generations": generation,
        "commits_ok": commits_ok,
        "commits_failed": commits_failed,
        "reads_failed_fast": reads_failed_fast,
        "committed_pages": len(committed),
        "mismatches": mismatches,
        "corrupt_detected": corrupt_detected,
        "verify_reads": schedule.corrupting,
        "client_metrics": db.object_client.metrics.snapshot(),
        "store_metrics": db.object_store.metrics.snapshot(),
        "ocm_metrics": db.ocm.metrics.snapshot() if db.ocm is not None else {},
        "breaker_transitions": (
            db.object_client.metrics.series("breaker_transitions").samples
        ),
        "p99_get_latency": (
            merged_histogram(client_metrics, "get_latency").percentile(99.0)
        ),
        "p99_get_latency_by_region": p99_by_region,
        "regions": regions,
        "virtual_seconds": db.clock.now(),
    }
