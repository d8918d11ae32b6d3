"""The scrub drill: rot a replicated store at rest, scrub it, fsck it.

One deterministic scenario shared by the ``repro scrub`` CLI command and
the integrity tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.chaos import REGION_NAMES
from repro.core.audit import StoreAuditor
from repro.core.scrub import DEFAULT_BYTES_PER_SECOND, Scrubber
from repro.engine import Database, DatabaseConfig
from repro.objectstore.replicated import ReplicationConfig


def damage_at_rest(store, count: int, flips: int) -> "List[str]":
    """Bit-flip up to ``count`` stored primary copies in place.

    At-rest rot: deterministic flips in sorted key order, skipping keys
    whose latest version holds no data.  No fault schedule, no RNG — rot
    is not an I/O event.  A replicated store damages its primary region.
    Returns the damaged names.
    """
    damaged: "List[str]" = []
    for name in sorted(store.all_keys()):
        if len(damaged) >= count:
            break
        if store.latest_data(name) is None:
            continue
        if store.inject_damage(name, flips=flips):
            damaged.append(name)
    return damaged


def run_scrub_scenario(
    seed: int = 0,
    regions: int = 3,
    generations: int = 4,
    pages: int = 8,
    damage: int = 4,
    flips: int = 3,
    budget: "Optional[float]" = None,
) -> "Dict[str, object]":
    """Rot a replicated store at rest, scrub it, and return the evidence.

    A short workload commits ``generations`` generations of ``pages``
    pages, replication converges, and then ``damage`` stored objects on
    the primary are bit-flipped in place — silent at-rest rot, invisible
    until something re-reads the bytes.  A deep fsck counts the damage,
    one budgeted scrubber pass repairs it from the healthy replicas, and
    a second deep fsck proves the store is clean.  Deterministic for a
    given seed.
    """
    if not 1 <= regions <= len(REGION_NAMES):
        raise ValueError(
            f"regions must be in [1, {len(REGION_NAMES)}]"
        )
    if damage < 1 or flips < 1:
        raise ValueError(
            f"the drill damages at least one object with at least one bit "
            f"flip, got damage={damage}, flips={flips}"
        )
    replication = (
        ReplicationConfig(regions=REGION_NAMES[:regions],
                          mean_lag_seconds=0.2, staleness_horizon=5.0)
        if regions > 1 else None
    )
    db = Database(DatabaseConfig(
        seed=seed,
        buffer_capacity_bytes=8 << 20,
        ocm_capacity_bytes=32 << 20,
        page_size=16 * 1024,
        replication=replication,
        verify_reads=True,
    ))
    db.create_object("t")
    for gen in range(generations):
        txn = db.begin()
        for page in range(pages):
            db.write_page(txn, "t", page, b"gen-%d-page-%d" % (gen, page))
        db.commit(txn)
        db.clock.advance(0.5)
    store = db.object_store
    if replication is not None:
        # Let every queued apply land so each region holds every version.
        db.clock.advance(replication.staleness_horizon + 1.0)
        store.pump(db.clock.now())
    damaged = damage_at_rest(store, damage, flips)
    auditor = StoreAuditor(db)
    before = auditor.audit(deep=True)
    if budget is None:
        budget = DEFAULT_BYTES_PER_SECOND
    scrubber = Scrubber(db, bytes_per_second=budget)
    report = scrubber.run()
    after = auditor.audit(deep=True)
    return {
        "seed": seed,
        "regions": regions,
        "damaged": len(damaged),
        "scrub": report.to_dict(),
        "corrupt_before": len(before.corrupt) + len(before.region_corrupt),
        "corrupt_after": len(after.corrupt) + len(after.region_corrupt),
        "audit_ok_after": after.ok(),
        "scrub_virtual_seconds": report.finished_at - report.started_at,
        "bytes_per_second": scrubber.bytes_per_second,
        "virtual_seconds": db.clock.now(),
    }
