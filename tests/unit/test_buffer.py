"""Unit tests for the buffer manager (Section 3.1)."""

import random
from collections import OrderedDict

import pytest

from repro.core.buffer import BufferError, BufferManager, Frame, ObjectHandle
from repro.core.txn import Transaction
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import CloudDbspace, DirectObjectIO
from repro.storage.locator import NULL_LOCATOR, OBJECT_KEY_BASE
from repro.storage.page import PageConfig


class CounterKeys:
    def __init__(self):
        self.next = OBJECT_KEY_BASE

    def next_key(self):
        self.next += 1
        return self.next


class FakeNode:
    node_id = "test"


def make_env(capacity=1 << 20, page_size=16 * 1024):
    clock = VirtualClock()
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0)
    store = SimulatedObjectStore(profile, clock=clock)
    dbspace = CloudDbspace("user", DirectObjectIO(RetryingObjectClient(store)),
                           CounterKeys())
    buffer = BufferManager(capacity, PageConfig(page_size))
    return buffer, dbspace, store


def make_txn(txn_id=1):
    return Transaction(txn_id, FakeNode(), begin_seq=0, snapshot={})


def make_handle(dbspace, txn=None, version=0, blockmap=None, object_id=1):
    writable = txn is not None
    return ObjectHandle(
        object_id=object_id,
        name="t",
        dbspace=dbspace,
        blockmap=blockmap or Blockmap(dbspace, fanout=8),
        version=version,
        page_count=0,
        writable=writable,
        txn=txn,
    )


def test_write_then_read_back():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"page zero")
    assert buffer.get_page(handle, 0) == b"page zero"
    assert handle.page_count == 1


def test_read_miss_loads_from_storage():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"persisted")
    buffer.flush_txn(txn.txn_id)
    buffer.invalidate_all()
    # A read handle at the (virtual) committed version.
    reader = make_handle(dbspace, None, version=0, blockmap=handle.blockmap)
    assert buffer.get_page(reader, 0) == b"persisted"
    assert buffer.metrics.snapshot()["misses"] == 1


def test_missing_page_raises():
    buffer, dbspace, __ = make_env()
    reader = make_handle(dbspace)
    with pytest.raises(BufferError):
        buffer.get_page(reader, 42)


def test_write_requires_writable_handle():
    buffer, dbspace, __ = make_env()
    reader = make_handle(dbspace)
    with pytest.raises(BufferError):
        buffer.write_page(reader, 0, b"x")


def test_oversized_page_rejected():
    buffer, dbspace, __ = make_env(page_size=16 * 1024)
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    with pytest.raises(BufferError):
        buffer.write_page(handle, 0, b"x" * (16 * 1024 + 1))


def test_flush_uses_fresh_keys_per_flush():
    """Never-write-twice: two flushes of one page use two keys."""
    buffer, dbspace, store = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"v1")
    buffer.flush_txn(txn.txn_id)
    first_key = handle.blockmap.lookup(0)
    buffer.write_page(handle, 0, b"v2")
    buffer.flush_txn(txn.txn_id)
    second_key = handle.blockmap.lookup(0)
    assert first_key != second_key
    assert store.metrics.snapshot().get("overwrites", 0) == 0


def test_flush_records_rb_and_local_garbage():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"v1")
    buffer.flush_txn(txn.txn_id)
    assert len(txn.rb) == 1
    buffer.write_page(handle, 0, b"v2")
    buffer.flush_txn(txn.txn_id)
    # The first key was superseded by the same transaction: local garbage.
    assert txn.local_garbage
    assert len(txn.rb) == 1


def test_eviction_flushes_dirty_pages():
    buffer, dbspace, __ = make_env(capacity=8 * 1024)
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    for page in range(10):
        buffer.write_page(handle, page, b"x" * 2048)
    assert buffer.metrics.snapshot().get("evictions", 0) > 0
    # Evicted dirty pages were flushed and are re-readable.
    for page in range(10):
        assert buffer.get_page(handle, page) == b"x" * 2048


def test_eviction_respects_capacity():
    buffer, dbspace, __ = make_env(capacity=8 * 1024)
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    for page in range(50):
        buffer.write_page(handle, page, b"y" * 1024)
    assert buffer.used_bytes <= 8 * 1024


def test_promote_txn_frames():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"committed soon")
    buffer.flush_txn(txn.txn_id)
    buffer.promote_txn_frames(txn.txn_id, {1: 1})
    reader = make_handle(dbspace, None, version=1, blockmap=handle.blockmap)
    assert buffer.get_page(reader, 0) == b"committed soon"
    assert buffer.metrics.snapshot()["hits"] >= 1


def test_promote_refuses_dirty_frames():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"dirty")
    with pytest.raises(BufferError):
        buffer.promote_txn_frames(txn.txn_id, {1: 1})


def test_drop_txn_frames():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"doomed")
    dropped = buffer.drop_txn_frames(txn.txn_id)
    assert dropped == 1
    assert buffer.frame_count() == 0


def test_prefetch_brings_pages_in():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    for page in range(8):
        buffer.write_page(handle, page, b"p%d" % page)
    buffer.flush_txn(txn.txn_id)
    buffer.invalidate_all()
    reader = make_handle(dbspace, None, version=0, blockmap=handle.blockmap)
    buffer.prefetch(reader, range(8))
    assert buffer.metrics.snapshot()["prefetched"] == 8
    hits_before = buffer.metrics.snapshot().get("hits", 0)
    for page in range(8):
        buffer.get_page(reader, page)
    assert buffer.metrics.snapshot()["hits"] == hits_before + 8


def test_prefetch_skips_cached_and_unmapped():
    buffer, dbspace, __ = make_env()
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    buffer.write_page(handle, 0, b"zero")
    buffer.flush_txn(txn.txn_id)
    reader = make_handle(dbspace, None, version=0, blockmap=handle.blockmap)
    # Page 0 is cached (promoted frame lives under the working tag, so
    # read it once), page 99 unmapped.
    buffer.get_page(reader, 0)
    buffer.prefetch(reader, [0, 99])
    assert buffer.metrics.snapshot().get("prefetched", 0) == 0


def W(txn_id):
    return ("w", txn_id)


def test_interleaved_txns_pin_eviction_and_promotion_order():
    """Characterisation: LRU order survives promote/drop of working frames.

    Two interleaved writers share a 10-frame pool (so it evicts), the tail
    leaves txn 1's working frames *touched out of insertion order*, then
    txn 1 commits and txn 2 rolls back.  Every evicted key and the frame
    order after each step are pinned: promoted frames must re-enter the
    LRU list in their previous relative order, because that order decides
    later evictions and with them ``core.buffer.*`` and virtual time.
    """
    buffer, dbspace, __ = make_env(capacity=10 * 1024)
    handles = {
        txn_id: make_handle(dbspace, make_txn(txn_id), object_id=txn_id)
        for txn_id in (1, 2, 3)
    }
    written = {1: set(), 2: set(), 3: set()}
    evicted = []

    def step(txn_id, page, write, fill):
        before = list(buffer._frames)
        if write:
            buffer.write_page(handles[txn_id], page, bytes([fill]) * 1024)
            written[txn_id].add(page)
        else:
            buffer.get_page(handles[txn_id], page)
        evicted.extend(key for key in before if key not in buffer._frames)

    rng = random.Random(7)
    for n in range(80):
        txn_id = rng.choice((1, 2))
        page = rng.randrange(9)
        step(txn_id, page,
             page not in written[txn_id] or rng.random() < 0.5, n)
    for txn_id, page, write in [
        (1, 0, True), (1, 1, True), (2, 0, True), (1, 2, True), (1, 3, True),
        (2, 1, True), (1, 2, False), (1, 0, False), (2, 0, False),
    ]:
        step(txn_id, page, write, 200 + page)

    assert evicted == [
        (1, 5, W(1)), (1, 8, W(1)), (2, 1, W(2)), (2, 0, W(2)), (1, 3, W(1)),
        (1, 6, W(1)), (1, 4, W(1)), (2, 2, W(2)), (2, 3, W(2)), (2, 8, W(2)),
        (1, 5, W(1)), (2, 6, W(2)), (1, 1, W(1)), (1, 4, W(1)), (1, 0, W(1)),
        (2, 7, W(2)), (2, 5, W(2)), (2, 1, W(2)), (2, 8, W(2)), (2, 6, 0),
        (2, 3, W(2)), (1, 2, W(1)), (1, 4, W(1)), (1, 6, 0), (2, 2, 0),
        (2, 6, W(2)), (1, 3, W(1)), (1, 7, W(1)), (2, 0, W(2)), (1, 6, W(1)),
        (2, 5, 0), (2, 1, W(2)), (2, 4, W(2)), (2, 2, 0), (1, 8, W(1)),
        (1, 4, 0), (1, 5, 0), (2, 3, 0), (1, 3, 0), (2, 0, 0), (2, 7, W(2)),
        (2, 5, W(2)),
    ]
    assert list(buffer._frames) == [
        (2, 3, W(2)), (1, 7, 0), (2, 1, 0), (1, 6, 0), (1, 1, W(1)),
        (1, 3, W(1)), (2, 1, W(2)), (1, 2, W(1)), (1, 0, W(1)), (2, 0, W(2)),
    ]

    buffer.flush_txn(1)
    buffer.promote_txn_frames(1, {1: 1})
    # Promoted frames keep their LRU order 1, 3, 2, 0 — not 0, 1, 2, 3.
    assert list(buffer._frames) == [
        (2, 3, W(2)), (1, 7, 0), (2, 1, 0), (1, 6, 0), (2, 1, W(2)),
        (2, 0, W(2)), (1, 1, 1), (1, 3, 1), (1, 2, 1), (1, 0, 1),
    ]
    assert buffer.drop_txn_frames(2) == 3
    assert list(buffer._frames) == [
        (1, 7, 0), (2, 1, 0), (1, 6, 0), (1, 1, 1), (1, 3, 1), (1, 2, 1),
        (1, 0, 1),
    ]

    del evicted[:]
    for page in range(8):
        step(3, page, True, 100 + page)
    assert evicted == [(1, 7, 0), (2, 1, 0), (1, 6, 0), (1, 1, 1), (1, 3, 1)]
    assert buffer.metrics.snapshot() == {
        "hits": 17.0, "misses": 13.0, "evictions": 47.0,
        "dirty_flushes": 36.0,
    }


class _NoPoolScan(OrderedDict):
    """A frame table that refuses whole-pool iteration."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("commit/rollback iterated the whole frame pool")

    __iter__ = items = keys = values = _refuse


@pytest.mark.parametrize("finish", ["promote", "drop"])
def test_commit_and_rollback_touch_only_the_transactions_frames(finish):
    """Scaling guard by call count: 5 000 frames of other versions in the
    pool, and ending a 3-frame transaction removes and inserts 3 frames
    without walking the rest."""
    buffer, dbspace, __ = make_env(capacity=64 << 20)
    for page in range(5000):
        buffer._insert((9, page, 0), Frame(data=b"other", page_no=page))
    txn = make_txn()
    handle = make_handle(dbspace, txn)
    for page in range(3):
        buffer.write_page(handle, page, b"mine-%d" % page)
    buffer.flush_txn(txn.txn_id)

    calls = {"_insert": 0, "_remove": 0}
    for name in calls:
        original = getattr(buffer, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        setattr(buffer, name, counted)
    buffer._frames = _NoPoolScan(buffer._frames)

    if finish == "promote":
        buffer.promote_txn_frames(txn.txn_id, {1: 1})
        assert calls == {"_remove": 3, "_insert": 3}
        assert buffer.frame_count() == 5003
        assert list(OrderedDict.keys(buffer._frames))[-3:] == [
            (1, 0, 1), (1, 1, 1), (1, 2, 1)]
    else:
        assert buffer.drop_txn_frames(txn.txn_id) == 3
        assert calls == {"_remove": 3, "_insert": 0}
        assert buffer.frame_count() == 5000
    assert buffer._txn_frames == {}


def test_capacity_validation():
    with pytest.raises(BufferError):
        BufferManager(0)
