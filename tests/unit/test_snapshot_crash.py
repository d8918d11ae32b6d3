"""Snapshot/crash interaction: creation, retention, and reap windows.

The dangerous window is between ``create_snapshot`` capturing metadata
and the snapshot becoming registered/durable: a crash there must never
let ``reap()`` delete an object an earlier, still-live snapshot
references.  The reap protocol's own crash windows (free-then-pop) must
likewise stay idempotent across recovery.
"""

import pytest

from repro.core.audit import StoreAuditor
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash
from tests.conftest import make_db

RETENTION = 60.0


@pytest.fixture(autouse=True)
def _disarm():
    yield
    CRASH_POINTS.disarm_all()


def snap_db():
    return make_db(retention_seconds=RETENTION,
                   system_volume_size_bytes=32 * 1024 * 1024)


def write_and_commit(db, name, pages, tag):
    txn = db.begin()
    for page in pages:
        db.write_page(txn, name, page, tag + b"-%d" % page)
    db.commit(txn)


def read_snapshot_pages(db, snapshot_id, name, pages):
    """Restore the snapshot, then read its pages back."""
    db.restore_snapshot(snapshot_id)
    txn = db.begin()
    data = [db.read_page(txn, name, page) for page in pages]
    db.rollback(txn)
    return data


def test_crash_before_register_does_not_endanger_live_snapshot():
    """Satellite: a snapshot-creation crash must not let reap() eat an
    earlier snapshot's pages."""
    db = snap_db()
    db.create_object("t")
    write_and_commit(db, "t", range(3), b"v1")
    snap1 = db.create_snapshot()
    # Supersede v1: its pages move to the retention FIFO via GC.
    write_and_commit(db, "t", range(3), b"v2")
    db.txn_manager.collect_garbage()

    CRASH_POINTS.arm("snapshot.create.before_register")
    with pytest.raises(SimulatedCrash) as exc:
        db.create_snapshot()
    db.crash_from(exc.value)
    db.restart()

    # Right up to snap1's expiry, reap must not touch its pages: every
    # FIFO entry protecting them was retained *after* snap1 was created,
    # so its expiry is strictly later than snap1's.
    target = snap1.expires_at - 1.0
    if target > db.clock.now():
        db.clock.advance_to(target)
    db.snapshot_manager.reap()
    pages = read_snapshot_pages(db, snap1.snapshot_id, "t", range(3))
    for page, data in enumerate(pages):
        assert data == b"v1-%d" % page
    report = StoreAuditor(db).audit()
    assert report.ok(), report.to_dict()


def test_fifo_outlives_every_snapshot_it_protects():
    """Structural invariant behind the test above: retention entries
    always expire no earlier than the snapshots referencing them."""
    db = snap_db()
    db.create_object("t")
    write_and_commit(db, "t", range(2), b"v1")
    snapshot = db.create_snapshot()
    db.clock.advance(5.0)
    write_and_commit(db, "t", range(2), b"v2")
    db.txn_manager.collect_garbage()
    manager = db.snapshot_manager
    snapshot_expiry = snapshot.expires_at
    for __, expiry in manager._fifo:
        assert expiry >= snapshot_expiry


def test_reap_crash_after_free_recovers_idempotently():
    db = snap_db()
    db.create_object("t")
    write_and_commit(db, "t", range(2), b"v1")
    write_and_commit(db, "t", range(2), b"v2")
    db.txn_manager.collect_garbage()
    manager = db.snapshot_manager
    assert manager.retained_count() > 0
    db.clock.advance(RETENTION + 1.0)

    CRASH_POINTS.arm("snapshot.reap.after_free")
    with pytest.raises(SimulatedCrash) as exc:
        manager.reap()
    db.crash_from(exc.value)
    db.restart()

    # The crash hit after a delete but before the FIFO pop, so recovery
    # sees the entry again; re-reaping must neither raise nor leak.
    db.snapshot_manager.reap()
    assert db.snapshot_manager.retained_count() == 0
    report = StoreAuditor(db).audit()
    assert report.ok(), report.to_dict()


def test_reap_crash_before_free_leaves_fifo_intact():
    db = snap_db()
    db.create_object("t")
    write_and_commit(db, "t", range(2), b"v1")
    write_and_commit(db, "t", range(2), b"v2")
    db.txn_manager.collect_garbage()
    manager = db.snapshot_manager
    before = manager.retained_count()
    assert before > 0
    db.clock.advance(RETENTION + 1.0)

    CRASH_POINTS.arm("snapshot.reap.before_free")
    with pytest.raises(SimulatedCrash):
        manager.reap()
    # Nothing was deleted, nothing popped: the FIFO still owns the pages.
    assert manager.retained_count() == before
    report = StoreAuditor(db).audit()
    assert report.ok(), report.to_dict()
    manager.reap()
    assert manager.retained_count() == 0


def test_snapshot_crash_then_new_snapshot_still_works():
    db = snap_db()
    db.create_object("t")
    write_and_commit(db, "t", [0], b"v1")
    CRASH_POINTS.arm("snapshot.create.before_register")
    with pytest.raises(SimulatedCrash) as exc:
        db.create_snapshot()
    db.crash_from(exc.value)
    db.restart()
    snapshot = db.create_snapshot()
    write_and_commit(db, "t", [0], b"v2")
    assert read_snapshot_pages(
        db, snapshot.snapshot_id, "t", [0]
    ) == [b"v1-0"]
