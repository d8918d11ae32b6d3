"""Every consumed-key range is reclaimed the same way (PAPER.md §1, Table 1).

Restart GC polls the key ranges a node was handed; a restore polls the
keys consumed after its restore point.  These tests pin what each of the
four entry points costs on the user bucket — one HEAD and one DELETE per
polled key — and what it reports reclaimed, so that one reclaim body can
replace the per-site loops without moving a single request.  The virtual
clock at the end is pinned too: the fence a restore gains must not move it
when no write is in flight.
"""

import pytest

from repro.core.audit import StoreAuditor
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.core.snapshot import SnapshotError
from repro.engine import DatabaseConfig
from repro.objectstore.faults import FaultSchedule, LatencySpike
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash
from tests.conftest import make_db

MIB = 1024 * 1024


def requests(db):
    """(HEAD, DELETE) requests so far on the user bucket."""
    counters = db.object_store.metrics.snapshot()
    return (int(counters.get("head_requests", 0)),
            int(counters.get("delete_requests", 0)))


def spent(before, after):
    return (after[0] - before[0], after[1] - before[1])


def objects(db):
    return db.object_store.object_count()


def polled(db):
    return int(db.metrics.snapshot().get("restart_gc_polled_keys", 0))


def commit_pages(db, name, pages, label):
    txn = db.begin()
    for page in pages:
        db.write_page(txn, name, page, (label + b"-%d" % page).ljust(2048, b"."))
    db.commit(txn)


def make_multiplex(**overrides):
    return Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024,
                       ocm_capacity_bytes=32 * MIB, **overrides),
        MultiplexConfig(writers=1, readers=0, secondary_buffer_bytes=8 * MIB,
                        secondary_ocm_bytes=32 * MIB),
    )


def test_engine_restart_gc_polls_the_user_bucket():
    db = make_db()
    db.create_object("t")
    commit_pages(db, "t", range(3), b"v1")
    for i in range(3):
        db.user_dbspace.write_page(b"orphan-%d" % i, commit_mode=True)
    assert objects(db) == 7
    db.crash()
    before = requests(db)
    db.restart()
    assert spent(before, requests(db)) == (60, 60)
    assert polled(db) == 60
    assert objects(db) == 4
    assert db.clock.now() == 1.7705221444546455


def test_multiplex_restart_gc_polls_the_user_bucket():
    mux = make_multiplex()
    coordinator, writer = mux.coordinator, mux.node("writer-1")
    coordinator.create_object("t")
    commit_pages(writer, "t", range(3), b"v1")
    for i in range(3):
        writer.user_dbspace.write_page(b"orphan-%d" % i, commit_mode=True)
    writer.crash()
    before = requests(coordinator)
    assert writer.restart() == 3
    assert spent(before, requests(coordinator)) == (60, 60)
    assert polled(coordinator) == 60
    assert objects(coordinator) == 4
    assert coordinator.clock.now() == 1.7204765968249514


def test_retire_secondary_reclaims_through_restart_gc():
    mux = make_multiplex()
    coordinator, writer = mux.coordinator, mux.node("writer-1")
    coordinator.create_object("t")
    commit_pages(writer, "t", range(2), b"v1")
    writer.user_dbspace.write_page(b"orphan", commit_mode=True)
    before = requests(coordinator)
    assert mux.retire_secondary("writer-1") == 1
    assert spent(before, requests(coordinator)) == (61, 61)
    assert polled(coordinator) == 61
    assert objects(coordinator) == 3
    assert coordinator.clock.now() == 1.6847007983250424


def test_restore_snapshot_polls_the_user_bucket():
    db = make_db(retention_seconds=3600.0)
    db.create_object("t")
    commit_pages(db, "t", range(3), b"v1")
    snapshot = db.create_snapshot()
    commit_pages(db, "t", range(3), b"v2")
    before = requests(db)
    db.restore_snapshot(snapshot.snapshot_id)
    assert spent(before, requests(db)) == (60, 60)
    assert objects(db) == 4
    assert db.clock.now() == 1.743480037351615


# ---------------------------------------------------------------------- #
# what a restore keeps
# ---------------------------------------------------------------------- #

def read_all(db, name, pages):
    txn = db.begin()
    try:
        return [db.read_page(txn, name, page).split(b".")[0] for page in pages]
    finally:
        db.commit(txn)


def expire_and_reap(db):
    db.clock.advance(3601.0)
    db.snapshot_manager.reap()


def test_restore_snapshot_drops_later_snapshots():
    db = make_db(retention_seconds=3600.0)
    db.create_object("t")
    commit_pages(db, "t", range(3), b"v1")
    s1 = db.create_snapshot()
    commit_pages(db, "t", range(3), b"v2")
    s2 = db.create_snapshot()
    commit_pages(db, "t", range(3), b"v3")
    db.restore_snapshot(s1.snapshot_id)
    # The restore deleted v2, which only s2 referenced: s2 is gone too.
    assert db.snapshot_manager.snapshots() == [s1]
    assert StoreAuditor(db).audit().ok()
    with pytest.raises(SnapshotError, match="does not exist or has expired"):
        db.restore_snapshot(s2.snapshot_id)
    expire_and_reap(db)
    assert StoreAuditor(db).audit().ok()
    assert read_all(db, "t", range(3)) == [b"v1-0", b"v1-1", b"v1-2"]


# ---------------------------------------------------------------------- #
# a restore fences like restart GC does
# ---------------------------------------------------------------------- #

def test_restore_outlasts_a_secondarys_in_flight_put():
    """A writer dies mid-commit with PUTs accepted but, slowed by a latency
    spike, not settled; their op times lie past the restore's polls.

    Unfenced, each PUT outran the poll's blind DELETE (last writer wins)
    and its object outlived the restore.  fsck never called that a leak:
    the writer's active set covers the key, and the writer's own fenced
    restart GC reclaimed it.  The fence in ``reclaim`` makes the restore
    reclaim it itself, so the store is back to the snapshot's objects.
    """
    # One PUT per page, so the crash can land between two of them.
    mux = make_multiplex(retention_seconds=3600.0, coalesce_max_run=1)
    coordinator, writer = mux.coordinator, mux.node("writer-1")
    store = coordinator.object_store
    coordinator.create_object("t")
    commit_pages(coordinator, "t", [0], b"v1")
    snapshot = coordinator.create_snapshot()
    at_snapshot = store.object_count()

    now = coordinator.clock.now()
    store.fault_schedule = FaultSchedule([LatencySpike(
        now, now + 100.0, ops="put", node="writer-1", multiplier=500.0,
    )])
    txn = writer.begin()
    for page in range(4):
        writer.write_page(txn, "t", page, bytes([65 + page]) * 12000)
    CRASH_POINTS.arm("client.put.before_request", skip=3)
    try:
        with pytest.raises(SimulatedCrash) as crash:
            writer.commit(txn)
    finally:
        CRASH_POINTS.disarm_all()
    writer.crash_from(crash.value)
    assert store.write_horizon() > coordinator.clock.now()
    assert store.object_count() > at_snapshot

    coordinator.restore_snapshot(snapshot.snapshot_id)
    assert store.object_count() == at_snapshot
    assert StoreAuditor(coordinator).audit().ok()
    assert writer.restart() == 0
