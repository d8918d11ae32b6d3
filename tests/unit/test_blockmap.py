"""Unit tests for the blockmap tree (Figure 2 machinery)."""

import pytest

from repro.blockstore.device import BlockDevice
from repro.blockstore.profiles import ram_disk
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.objectstore.consistency import STRONG
from repro.sim.clock import VirtualClock
from repro.storage.blockmap import Blockmap, BlockmapError
from repro.storage.dbspace import BlockDbspace, CloudDbspace, DirectObjectIO
from repro.storage.locator import NULL_LOCATOR, OBJECT_KEY_BASE, is_object_key
from tests.conftest import flush_blockmap


class CounterKeys:
    def __init__(self):
        self.next = OBJECT_KEY_BASE

    def next_key(self):
        self.next += 1
        return self.next


class RecordingSink:
    def __init__(self):
        self.allocated = []
        self.replaced = []

    def on_allocate(self, locator):
        self.allocated.append(locator)

    def on_replace(self, old, fresh):
        self.replaced.append((old, fresh))


@pytest.fixture
def cloud_store():
    clock = VirtualClock()
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0)
    store = SimulatedObjectStore(profile, clock=clock)
    client = RetryingObjectClient(store)
    return CloudDbspace("user", DirectObjectIO(client), CounterKeys())


@pytest.fixture
def block_store():
    device = BlockDevice(ram_disk(), 4096, 10_000, clock=VirtualClock())
    return BlockDbspace("sys", device)


def test_empty_blockmap_lookup(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    assert blockmap.lookup(0) == NULL_LOCATOR
    assert blockmap.lookup(1000) == NULL_LOCATOR


def test_set_and_lookup(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    blockmap.set(3, OBJECT_KEY_BASE + 99)
    assert blockmap.lookup(3) == OBJECT_KEY_BASE + 99


def test_set_returns_previous(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    assert blockmap.set(1, OBJECT_KEY_BASE + 1) == NULL_LOCATOR
    assert blockmap.set(1, OBJECT_KEY_BASE + 2) == OBJECT_KEY_BASE + 1


def test_tree_grows_with_page_numbers(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    assert blockmap.height == 1
    blockmap.set(100, OBJECT_KEY_BASE + 1)
    assert blockmap.height >= 4  # 4^4 = 256 >= 101
    assert blockmap.lookup(100) == OBJECT_KEY_BASE + 1


def test_flush_and_reload(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    mappings = {}
    for page in range(40):
        locator = cloud_store.write_page(b"page-%d" % page)
        blockmap.set(page, locator)
        mappings[page] = locator
    root = flush_blockmap(blockmap)
    reloaded = Blockmap(cloud_store, fanout=4, root_locator=root,
                        height=blockmap.height)
    for page, locator in mappings.items():
        assert reloaded.lookup(page) == locator


def test_flush_cascade_versions_every_level(cloud_store):
    """Figure 2: flushing a data page versions leaf, parents and root."""
    blockmap = Blockmap(cloud_store, fanout=2)
    for page in range(8):
        blockmap.set(page, OBJECT_KEY_BASE + 100 + page)
    root_v1 = flush_blockmap(blockmap)
    blockmap.mark_committed()

    sink = RecordingSink()
    blockmap.set(7, OBJECT_KEY_BASE + 999)
    root_v2 = flush_blockmap(blockmap, sink)
    assert root_v2 != root_v1
    # Height-3 tree of fanout 2 over 8 pages: leaf, inner, root re-versioned.
    assert len(sink.allocated) == blockmap.height
    assert len(sink.replaced) == blockmap.height
    assert all(not fresh for __, fresh in sink.replaced)


def test_flush_within_txn_reports_fresh_garbage(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=2)
    sink = RecordingSink()
    blockmap.set(0, OBJECT_KEY_BASE + 1)
    flush_blockmap(blockmap, sink)
    blockmap.set(1, OBJECT_KEY_BASE + 2)
    flush_blockmap(blockmap, sink)
    # The second flush supersedes nodes written by the *same* transaction.
    assert any(fresh for __, fresh in sink.replaced)


def test_fork_copy_on_write(cloud_store):
    base = Blockmap(cloud_store, fanout=4)
    for page in range(10):
        base.set(page, OBJECT_KEY_BASE + page + 1)
    flush_blockmap(base)
    base.mark_committed()

    fork = base.fork()
    fork.set(5, OBJECT_KEY_BASE + 777)
    assert fork.lookup(5) == OBJECT_KEY_BASE + 777
    assert base.lookup(5) == OBJECT_KEY_BASE + 6  # base untouched
    flush_blockmap(fork)
    assert base.lookup(5) == OBJECT_KEY_BASE + 6


def test_fork_requires_clean_base(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    blockmap.set(0, OBJECT_KEY_BASE + 1)
    with pytest.raises(BlockmapError):
        blockmap.fork()


def test_fork_of_empty_blockmap_allowed(cloud_store):
    empty = Blockmap(cloud_store, fanout=4)
    fork = empty.fork()
    fork.set(0, OBJECT_KEY_BASE + 1)
    root = flush_blockmap(fork)
    assert root != NULL_LOCATOR


def test_live_locators_walk(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=2)
    for page in range(6):
        blockmap.set(page, OBJECT_KEY_BASE + 10 + page)
    flush_blockmap(blockmap)
    live = set(blockmap.live_locators())
    for page in range(6):
        assert OBJECT_KEY_BASE + 10 + page in live
    # Blockmap pages themselves are live (reachable) too.
    assert len(live) > 6


def test_mapped_pages(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    blockmap.set(2, OBJECT_KEY_BASE + 5)
    blockmap.set(9, OBJECT_KEY_BASE + 6)
    flush_blockmap(blockmap)
    mapped = {page: blockmap.lookup(page) for page in range(blockmap.capacity)}
    assert {page: locator for page, locator in mapped.items()
            if locator != NULL_LOCATOR} == {
        2: OBJECT_KEY_BASE + 5,
        9: OBJECT_KEY_BASE + 6,
    }


def test_block_store_reflush_allocates_fresh_runs(block_store):
    """Block dbspaces version blockmap nodes like cloud ones: a second
    flush inside one transaction writes fresh runs and reports the runs
    it supersedes as same-transaction garbage."""
    blockmap = Blockmap(block_store, fanout=4)
    sink = RecordingSink()
    blockmap.set(0, block_store.write_page(b"data"))
    flush_blockmap(blockmap, sink)
    first = list(sink.allocated)
    blockmap.set(1, block_store.write_page(b"data2"))
    flush_blockmap(blockmap, sink)
    second = sink.allocated[len(first):]
    assert len(second) == len(first) and not set(first) & set(second)
    assert sink.replaced == [(locator, True) for locator in first]


def test_negative_page_rejected(cloud_store):
    blockmap = Blockmap(cloud_store, fanout=4)
    with pytest.raises(BlockmapError):
        blockmap.lookup(-1)
    with pytest.raises(BlockmapError):
        blockmap.set(-1, OBJECT_KEY_BASE + 1)


def test_invalid_fanout(cloud_store):
    with pytest.raises(BlockmapError):
        Blockmap(cloud_store, fanout=1)
