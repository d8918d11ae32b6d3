"""The one read path: one timed, batch-first body per implementation.

``ObjectIO.get_many_at`` and ``PageStore.read_pages_at`` are the only reads
their implementations define; the blocking forms are base-class wrappers
that pass ``clock.advance_to`` as the wait.  Writes and deletes have the
same shape (``put_many``/``delete_many``, ``write_pages``/``free_pages``).  These tests pin the contract
between the forms, the fill-after-wait rule that makes the wait a callback
rather than a trailing ``advance_to``, and the lean single-page miss.
"""

import inspect
from dataclasses import fields

import pytest

from repro.blockstore.device import BlockDevice
from repro.columnar import QueryContext
from repro.core import ocm as ocm_module
from repro.core.buffer import BufferManager, ObjectHandle
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.objectstore import client as client_module
from repro.core.txn import Transaction
from repro.engine import PAPER_IO, DatabaseConfig
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.devices import DeviceProfile
from repro.sim.rng import DeterministicRng
from repro.sim.sessions import SessionScheduler
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import (
    BlockDbspace,
    CloudDbspace,
    DirectObjectIO,
    ObjectIO,
    PageStore,
)
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE
from repro.storage.page import PageConfig

SSD = DeviceProfile(name="ssd", read_latency=1e-4, write_latency=2e-4,
                    bandwidth=400_000.0, write_cost_multiplier=4.0)
DISK = DeviceProfile(name="disk", read_latency=2e-3, write_latency=3e-3,
                     bandwidth=2_000_000.0, iops=400.0, latency_jitter=0.05)


def _payload(i: int) -> bytes:
    return bytes((i * 11 + j) % 241 for j in range(1500 + 200 * (i % 3)))


class _Keys:
    def __init__(self) -> None:
        self.next = OBJECT_KEY_BASE + 500

    def next_key(self) -> int:
        self.next += 1
        return self.next


class Rig:
    """One seeded single-stream engine around one reader implementation.

    ``many``/``many_at``/``one`` are the reader's three forms over the
    rig's ``keys`` (object names or locators); ``counters()`` snapshots
    everything a read can move.
    """

    def __init__(self, kind: str) -> None:
        self.clock = clock = VirtualClock()
        rng = DeterministicRng(3, "read-path")
        profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                     transient_failure_probability=0.0)
        self.store = SimulatedObjectStore(profile, clock=clock,
                                          rng=rng.substream("s3"))
        self.client = RetryingObjectClient(self.store, parallel_window=3,
                                           rng=rng.substream("client"))
        self.ocm = None
        self.device = None
        io: ObjectIO = DirectObjectIO(self.client)
        if kind in ("ocm", "cloud_dbspace"):
            # Room for four of the eight objects: reads evict.
            io = self.ocm = ObjectCacheManager(
                self.client, SSD,
                OcmConfig(capacity_bytes=4 * 1700, read_window=3),
                rng=rng.substream("ssd"),
            )
        if kind in ("direct", "ocm"):
            self.keys = [hashed_object_name(OBJECT_KEY_BASE + i)
                         for i in range(8)]
            for i, name in enumerate(self.keys):
                self.store.put(name, _payload(i))
            self.reader = io
            self.many, self.many_at, self.one = (
                io.get_many, io.get_many_at, io.get)
            return
        if kind == "cloud_dbspace":
            dbspace: PageStore = CloudDbspace("user", io, _Keys())
        else:
            self.device = BlockDevice(DISK, 512, 1024, clock=clock,
                                      rng=rng.substream("disk"))
            dbspace = BlockDbspace("sys", self.device)
        self.keys = dbspace.write_pages([_payload(i) for i in range(8)],
                                        commit_mode=True)
        if self.ocm is not None:
            self.ocm.invalidate_all()
        self.reader = dbspace
        self.many, self.many_at, self.one = (
            dbspace.read_pages, dbspace.read_pages_at, dbspace.read_page)

    def counters(self) -> dict:
        out = {"store": self.store.metrics.snapshot(),
               "client": self.client.metrics.snapshot()}
        if self.ocm is not None:
            out["ocm"] = self.ocm.stats()
            out["ssd"] = self.ocm.device.metrics.snapshot()
            out["order"] = list(self.ocm._policy.eviction_order())
        if self.device is not None:
            out["disk"] = self.device.metrics.snapshot()
        return out


KINDS = ["direct", "ocm", "cloud_dbspace", "block_dbspace"]
# Misses, re-reads that hit where there is a cache, and overflow.
BATCHES = [[0, 1, 2], [2, 3], [4, 5, 6, 7, 0], [6], [1, 6, 7]]


@pytest.mark.parametrize("kind", KINDS)
def test_blocking_form_is_the_timed_form_plus_the_wait(kind):
    """Single-stream, ``x_many(keys)`` and ``x_many_at(keys, now)`` followed
    by ``advance_to(done)`` are the same read: bytes, times, counters."""
    blocking, timed = Rig(kind), Rig(kind)
    assert blocking.clock.now() == timed.clock.now()
    for batch in BATCHES:
        keys = [blocking.keys[i] for i in batch]
        got = blocking.many(keys, scan_hint=True)
        start = timed.clock.now()
        issued, done = timed.many_at(keys, start, scan_hint=True)
        assert timed.clock.now() == start  # wait=None: the clock stood still
        timed.clock.advance_to(done)
        assert got == issued
        assert [got[key] for key in keys] == [_payload(i) for i in batch]
        assert blocking.clock.now() == timed.clock.now() == done
        assert blocking.counters() == timed.counters()


@pytest.mark.parametrize("kind", KINDS)
def test_single_read_is_a_batch_of_one(kind):
    single, batch = Rig(kind), Rig(kind)
    for i in (0, 1, 0, 5, 6, 7, 2, 0):
        assert single.one(single.keys[i]) == _payload(i)
        assert batch.many([batch.keys[i]])[batch.keys[i]] == _payload(i)
        assert single.clock.now() == batch.clock.now()
        assert single.counters() == batch.counters()


def test_each_layer_defines_its_read_once():
    """The shape the collapse leaves behind, checkable by ``vars()``."""
    for cls in (DirectObjectIO, ObjectCacheManager):
        assert "get_many_at" in vars(cls)
        assert not {"get", "get_many", "_get_inner"} & set(vars(cls))
    for cls in (BlockDbspace, CloudDbspace):
        assert "read_pages_at" in vars(cls)
        assert not {"read_page", "read_pages"} & set(vars(cls))
    assert "get_many_at" in ObjectIO.__abstractmethods__
    assert "read_pages_at" in PageStore.__abstractmethods__
    assert not {"prefetch_issue", "_get_inner"} & set(vars(BufferManager))
    # The paper's path is values of the one path, not second bodies: one
    # prefetch body, one scan loop, coalescing as a run length.
    assert "prefetch_at" in vars(BufferManager)
    assert "prefetch_issue_many" not in vars(BufferManager)
    assert not {"_read_pipelined", "_issue_batch", "_prefetch_pages"} & set(
        vars(QueryContext))
    for module in (client_module, ocm_module):
        source = inspect.getsource(module)
        assert "coalesce_gets" not in source
        assert "coalesce_puts" not in source
    assert PAPER_IO == dict(ocm_policy="lru", pipelined_prefetch=False,
                            coalesce_max_run=1)


def test_each_layer_defines_its_write_and_delete_once():
    """The write side's shape: one batch body per implementation, the
    single forms once in the base class as batches of one (page frees
    have no single form)."""
    for cls in (DirectObjectIO, ObjectCacheManager):
        assert {"put_many", "delete_many"} <= set(vars(cls))
        assert not {"put", "delete", "_put_write_through"} & set(vars(cls))
    for cls in (BlockDbspace, CloudDbspace):
        assert {"write_pages", "free_pages"} <= set(vars(cls))
        assert not {"write_page", "free_page"} & set(vars(cls))
    assert {"put", "delete"} <= set(vars(ObjectIO))
    assert {"put_many", "delete_many"} <= ObjectIO.__abstractmethods__
    assert "write_page" in vars(PageStore)
    assert "free_page" not in vars(PageStore)  # frees are batches only
    assert {"write_pages", "free_pages"} <= PageStore.__abstractmethods__
    assert list(inspect.signature(PageStore.write_page).parameters) == [
        "self", "payload", "txn_id", "commit_mode"]
    assert not {"read", "write"} & set(vars(BlockDevice))
    for cls in (DatabaseConfig, OcmConfig):
        assert "group_commit_flush" not in {f.name for f in fields(cls)}
    assert "group_commit_flush" not in PAPER_IO


def test_blocking_reader_fills_after_its_wait():
    """Why ``wait`` is a callback and not a trailing ``advance_to``.

    While A waits for its GET of K, K is not cached yet — B misses on it
    too — and A's SSD fill has not been charged: the pipe is FIFO in call
    order, so a fill queued at A's future completion time would delay B's
    hit, issued earlier on the clock, until after it.
    """
    rig = Rig("ocm")
    ocm, clock = rig.ocm, rig.clock
    hot, cold = rig.keys[0], rig.keys[1]
    ocm.get(hot)
    clock.advance(1.0)  # the fill of ``hot`` has drained
    gets = rig.store.metrics.snapshot()["get_requests"]
    start = clock.now()
    seen = {}

    def reader_a(session):
        ocm.get(cold)
        seen["a_done"] = clock.now()

    def reader_b(session):
        ocm.get(hot)
        seen["b_hit_done"] = clock.now()
        ocm.get(cold)
        seen["b_done"] = clock.now()

    scheduler = SessionScheduler(clock)
    scheduler.spawn(reader_a, at=start)
    scheduler.spawn(reader_b, at=start + 0.002)
    scheduler.run()

    idle_hit = len(_payload(0)) / SSD.bandwidth + SSD.read_latency
    assert seen["b_hit_done"] == pytest.approx(start + 0.002 + idle_hit)
    assert seen["b_hit_done"] < seen["a_done"]
    # B asked for ``cold`` while A's GET was in flight: a second GET.
    assert start + 0.002 + idle_hit < seen["a_done"] < seen["b_done"]
    assert rig.store.metrics.snapshot()["get_requests"] == gets + 2
    assert ocm.stats()["misses"] == 3 and ocm.stats()["hits"] == 1


def test_get_page_miss_is_one_lookup_and_one_dbspace_read():
    rig = Rig("cloud_dbspace")
    dbspace = rig.reader
    buffer = BufferManager(1 << 20, PageConfig(4096))

    class Node:
        node_id = "test"

    txn = Transaction(1, Node(), begin_seq=0, snapshot={})
    writer = ObjectHandle(1, "t", dbspace, Blockmap(dbspace, fanout=8), 0, 0,
                          True, txn)
    for page_no in range(3):
        buffer.write_page(writer, page_no, _payload(page_no))
    buffer.flush_txn(txn.txn_id)
    buffer.invalidate_all()
    reader = ObjectHandle(1, "t", dbspace, writer.blockmap, 0, 3, False)

    calls = {"lookup": 0, "read": []}
    lookup, read_pages_at = reader.blockmap.lookup, dbspace.read_pages_at

    def counted_lookup(page_no):
        calls["lookup"] += 1
        return lookup(page_no)

    def counted_read(locators, now, scan_hint=False, wait=None):
        calls["read"].append(list(locators))
        return read_pages_at(locators, now, scan_hint, wait)

    reader.blockmap.lookup = counted_lookup
    dbspace.read_pages_at = counted_read
    assert buffer.get_page(reader, 1) == _payload(1)
    assert calls == {"lookup": 1, "read": [[lookup(1)]]}
    assert buffer.get_page(reader, 1) == _payload(1)  # framed: no I/O
    assert calls["lookup"] == 1 and len(calls["read"]) == 1
    assert buffer.stats()["misses"] == 1 and buffer.stats()["hits"] == 1
