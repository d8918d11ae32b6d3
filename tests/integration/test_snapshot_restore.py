"""Integration tests for snapshots and point-in-time restore (Section 5)."""

import pytest

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.engine import EngineError
from tests.conftest import make_db


@pytest.fixture
def db():
    return make_db(retention_seconds=3600.0)


def write_and_commit(db, name, pages, payload):
    txn = db.begin()
    for page in pages:
        db.write_page(txn, name, page,
                      (payload + b"-%d" % page).ljust(2048, b"."))
    db.commit(txn)


def test_snapshot_is_metadata_only_and_fast(db):
    db.create_object("t")
    write_and_commit(db, "t", range(20), b"v1")
    data_bytes = db.user_data_bytes()
    before = db.clock.now()
    snapshot = db.create_snapshot()
    elapsed = db.clock.now() - before
    # Near-instantaneous: metadata only, no user-data copying.
    assert len(snapshot.catalog_bytes) < data_bytes / 2
    assert elapsed < 1.0


def test_restore_returns_to_snapshot_state(db):
    db.create_object("t")
    write_and_commit(db, "t", range(5), b"v1")
    snapshot = db.create_snapshot()
    write_and_commit(db, "t", range(5), b"v2")
    check = db.begin()
    assert db.read_page(check, "t", 0).startswith(b"v2")
    db.commit(check)

    db.restore_snapshot(snapshot.snapshot_id)
    restored = db.begin()
    for page in range(5):
        assert db.read_page(restored, "t", page) == (b"v1-%d" % page).ljust(2048, b".")
    db.commit(restored)


def test_restore_garbage_collects_posterior_keys(db):
    db.create_object("t")
    write_and_commit(db, "t", range(5), b"v1")
    snapshot = db.create_snapshot()
    objects_at_snapshot = db.object_store.object_count()
    write_and_commit(db, "t", range(5), b"v2")
    db.restore_snapshot(snapshot.snapshot_id)
    # Everything written after the snapshot was polled and deleted; the
    # superseded v1 pages are retained (snapshot manager owns them).
    assert db.object_store.object_count() == objects_at_snapshot


def test_writes_after_restore_use_fresh_keys(db):
    db.create_object("t")
    write_and_commit(db, "t", [0], b"v1")
    snapshot = db.create_snapshot()
    write_and_commit(db, "t", [0], b"v2")
    consumed_before_restore = db.key_cache.last_consumed
    db.restore_snapshot(snapshot.snapshot_id)
    write_and_commit(db, "t", [0], b"v3")
    # Key monotonicity holds across the restore: no reuse.
    assert db.key_cache.last_consumed > consumed_before_restore
    check = db.begin()
    assert db.read_page(check, "t", 0).startswith(b"v3")
    db.commit(check)


def test_retention_defers_deletion_until_expiry(db):
    db.create_object("t")
    write_and_commit(db, "t", range(3), b"v1")
    write_and_commit(db, "t", range(3), b"v2")
    # Superseded v1 pages were retained, not deleted.
    assert db.snapshot_manager.retained_count() > 0
    count_before = db.object_store.object_count()
    assert db.snapshot_manager.reap() == 0
    db.clock.advance(3601.0)
    assert db.snapshot_manager.reap() > 0
    assert db.object_store.object_count() < count_before


def test_expired_snapshot_cannot_restore(db):
    db.create_object("t")
    write_and_commit(db, "t", [0], b"v1")
    snapshot = db.create_snapshot()
    db.clock.advance(3601.0)
    db.snapshot_manager.reap()
    from repro.core.snapshot import SnapshotError

    with pytest.raises(SnapshotError):
        db.restore_snapshot(snapshot.snapshot_id)


def test_multiple_snapshots_restore_to_each(db):
    db.create_object("t")
    write_and_commit(db, "t", [0], b"gen1")
    snap1 = db.create_snapshot()
    write_and_commit(db, "t", [0], b"gen2")
    snap2 = db.create_snapshot()
    write_and_commit(db, "t", [0], b"gen3")

    db.restore_snapshot(snap2.snapshot_id)
    check = db.begin()
    assert db.read_page(check, "t", 0).startswith(b"gen2")
    db.commit(check)

    db.restore_snapshot(snap1.snapshot_id)
    check = db.begin()
    assert db.read_page(check, "t", 0).startswith(b"gen1")
    db.commit(check)


def test_restore_aborts_active_transactions(db):
    db.create_object("t")
    write_and_commit(db, "t", [0], b"v1")
    snapshot = db.create_snapshot()
    dangling = db.begin()
    db.write_page(dangling, "t", 0, b"in flight")
    db.restore_snapshot(snapshot.snapshot_id)
    assert not db.txn_manager.active_transactions()


def test_queries_after_restore_read_the_restored_table(db):
    """A commit after a restore reuses version numbers; the session's
    version-keyed query caches must not serve pre-restore contents."""
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "facts", (ColumnSchema("k", "int"), ColumnSchema("v", "float")),
        partition_column="k", partition_count=1, rows_per_page=128,
    ))
    store.load("facts", [(k, k / 2) for k in range(100)])
    snapshot = db.create_snapshot()
    store.append("facts", [(k, k / 2) for k in range(100, 150)])
    with QueryContext(db) as ctx:
        assert len(ctx.read("facts", ["k"])["k"]) == 150
    db.restore_snapshot(snapshot.snapshot_id)
    store.append("facts", [(k, k / 2) for k in range(200, 210)])
    with QueryContext(db) as ctx:
        keys = ctx.read("facts", ["k"])["k"]
    assert sorted(keys) == list(range(100)) + list(range(200, 210))


def test_snapshot_disabled_without_retention():
    db = make_db()  # retention 0
    assert db.snapshot_manager is None
    with pytest.raises(EngineError):
        db.create_snapshot()


@pytest.mark.parametrize("volume", ["ebs", "efs"])
def test_snapshot_refused_on_a_block_user_dbspace(volume):
    """Retention defers only object deletes: a block dbspace frees a
    superseded block at once, so no restore could serve the snapshot."""
    db = make_db(user_volume=volume, retention_seconds=3600.0)
    db.create_object("t")
    write_and_commit(db, "t", range(3), b"v1")
    with pytest.raises(EngineError, match="snapshots need a cloud user dbspace"):
        db.create_snapshot()
    assert db.snapshot_manager.snapshots() == []
