"""Unit tests for the snapshot manager (Section 5)."""

import pytest

from repro.core.snapshot import SnapshotError, SnapshotManager
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.storage.dbspace import CloudDbspace, DirectObjectIO
from repro.storage.locator import OBJECT_KEY_BASE


class CounterKeys:
    def __init__(self):
        self.next = OBJECT_KEY_BASE

    def next_key(self):
        self.next += 1
        return self.next


def make_env(retention=100.0):
    clock = VirtualClock()
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0)
    store = SimulatedObjectStore(profile, clock=clock)
    dbspace = CloudDbspace("user", DirectObjectIO(RetryingObjectClient(store)),
                           CounterKeys())
    manager = SnapshotManager(clock, retention, dbspace)
    return manager, dbspace, store, clock


def test_retained_pages_survive_until_expiry():
    manager, dbspace, store, clock = make_env(retention=50.0)
    locator = dbspace.write_page(b"retained")
    manager.retain([locator])
    clock.advance(10.0)
    assert manager.reap() == 0
    assert store.object_count() == 1
    clock.advance(50.0)
    assert manager.reap() == 1
    assert store.object_count() == 0


def test_fifo_reaps_in_order():
    manager, dbspace, store, clock = make_env(retention=10.0)
    first = dbspace.write_page(b"first")
    manager.retain([first])
    clock.advance(5.0)
    second = dbspace.write_page(b"second")
    manager.retain([second])
    clock.advance(6.0)  # first expired, second not
    assert manager.reap() == 1
    assert not store.exists(dbspace.object_name(first))
    assert store.exists(dbspace.object_name(second))


def test_snapshot_capture_and_lookup():
    manager, __, __, clock = make_env()
    snapshot = manager.create_snapshot(b"catalog", OBJECT_KEY_BASE + 42)
    assert manager.get_snapshot(snapshot.snapshot_id) is snapshot
    assert snapshot.max_allocated_key == OBJECT_KEY_BASE + 42
    assert snapshot.created_at == clock.now()


def test_snapshot_expires_with_retention():
    manager, __, __, clock = make_env(retention=20.0)
    snapshot = manager.create_snapshot(b"c", OBJECT_KEY_BASE)
    clock.advance(21.0)
    manager.reap()
    with pytest.raises(SnapshotError):
        manager.get_snapshot(snapshot.snapshot_id)


def test_metadata_roundtrip():
    manager, dbspace, __, clock = make_env()
    manager.retain([dbspace.write_page(b"x")])
    payload = manager.metadata_bytes()
    other, __, __, __ = make_env()
    other.rewind(SnapshotManager.decode_metadata(payload), set(), clock.now())
    assert other.retained_count() == 1


def test_unknown_snapshot_raises():
    manager, __, __, __ = make_env()
    with pytest.raises(SnapshotError):
        manager.get_snapshot(99)


def test_negative_retention_rejected():
    __, dbspace, __, __ = make_env()
    with pytest.raises(SnapshotError):
        SnapshotManager(VirtualClock(), -1.0, dbspace)


def test_snapshots_listing():
    manager, __, __, __ = make_env()
    a = manager.create_snapshot(b"a", OBJECT_KEY_BASE)
    b = manager.create_snapshot(b"b", OBJECT_KEY_BASE + 1)
    assert [s.snapshot_id for s in manager.snapshots()] == [
        a.snapshot_id, b.snapshot_id
    ]
