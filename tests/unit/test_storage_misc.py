"""Unit tests for page codecs, page config, identity objects, dbspaces."""

import pytest

from repro.blockstore.device import BlockDevice
from repro.blockstore.freelist import FreelistError
from repro.blockstore.profiles import ram_disk
from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.consistency import STRONG
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.storage.compression import ZlibCodec
from repro.storage.dbspace import (
    BlockDbspace,
    CloudDbspace,
    DbspaceError,
    DirectObjectIO,
)
from repro.storage.identity import Catalog, CatalogError, IdentityObject
from repro.storage.locator import (
    NULL_LOCATOR,
    OBJECT_KEY_BASE,
    is_object_key,
    make_block_locator,
)
from repro.storage.page import PageConfig


class CounterKeys:
    def __init__(self):
        self.next = OBJECT_KEY_BASE

    def next_key(self):
        self.next += 1
        return self.next


class TestCodecs:
    def test_zlib_roundtrip(self):
        codec = ZlibCodec()
        data = b"hello " * 1000
        compressed = codec.compress(data)
        assert len(compressed) < len(data)
        assert codec.decompress(compressed) == data


class TestPageConfig:
    def test_block_size_is_sixteenth(self):
        config = PageConfig(page_size=64 * 1024)
        assert config.block_size == 4096

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageConfig(page_size=1000)  # not a multiple of 16
        with pytest.raises(ValueError):
            PageConfig(page_size=0)


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        oid = catalog.register_object("t1", "user")
        assert catalog.object_id("t1") == oid
        assert catalog.current(oid).version == 0
        assert catalog.current(oid).root_locator == NULL_LOCATOR

    def test_duplicate_name_rejected(self):
        catalog = Catalog()
        catalog.register_object("t1", "user")
        with pytest.raises(CatalogError):
            catalog.register_object("t1", "user")

    def test_publish_advances_version(self):
        catalog = Catalog()
        oid = catalog.register_object("t", "user")
        catalog.publish(IdentityObject(oid, "t", 1, 100, 1, 5, "user"))
        assert catalog.current(oid).version == 1
        assert catalog.identity(oid, 0).version == 0

    def test_publish_must_advance(self):
        catalog = Catalog()
        oid = catalog.register_object("t", "user")
        catalog.publish(IdentityObject(oid, "t", 1, 100, 1, 5, "user"))
        with pytest.raises(CatalogError):
            catalog.publish(IdentityObject(oid, "t", 1, 200, 1, 5, "user"))

    def test_drop_version(self):
        catalog = Catalog()
        oid = catalog.register_object("t", "user")
        catalog.publish(IdentityObject(oid, "t", 1, 100, 1, 5, "user"))
        catalog.drop_version(oid, 0)
        assert not catalog.has_version(oid, 0)
        with pytest.raises(CatalogError):
            catalog.drop_version(oid, 1)  # current version protected

    def test_serialization_roundtrip(self):
        catalog = Catalog()
        oid = catalog.register_object("t", "user")
        catalog.publish(IdentityObject(oid, "t", 1, 42, 2, 7, "user"))
        restored = Catalog.from_bytes(catalog.to_bytes())
        assert restored.current(oid).root_locator == 42
        assert restored.object_names() == ["t"]

    def test_drop_object(self):
        catalog = Catalog()
        oid = catalog.register_object("t", "user")
        catalog.drop_object(oid)
        assert not catalog.has_object("t")


def make_cloud():
    profile = ObjectStoreProfile(name="s3", consistency=STRONG,
                                 transient_failure_probability=0.0)
    store = SimulatedObjectStore(profile, clock=VirtualClock())
    return CloudDbspace("user", DirectObjectIO(RetryingObjectClient(store)),
                        CounterKeys())


def make_block():
    device = BlockDevice(ram_disk(), 4096, 1000, clock=VirtualClock())
    return BlockDbspace("sys", device)


class TestCloudDbspace:
    def test_every_write_gets_a_fresh_key(self):
        dbspace = make_cloud()
        first = dbspace.write_page(b"v1")
        second = dbspace.write_page(b"v2")
        assert second != first
        assert is_object_key(first) and is_object_key(second)
        assert dbspace.read_page(first) == b"v1"
        assert dbspace.read_page(second) == b"v2"

    def test_write_pages_batch(self):
        dbspace = make_cloud()
        locators = dbspace.write_pages([b"a", b"b", b"c"])
        assert len(set(locators)) == 3
        assert dbspace.read_pages(locators)[locators[1]] == b"b"

    def test_poll_and_free(self):
        dbspace = make_cloud()
        locator = dbspace.write_page(b"x")
        assert dbspace.poll_and_free(locator) is True
        assert dbspace.poll_and_free(locator) is False  # already gone

    def test_block_locator_rejected(self):
        dbspace = make_cloud()
        with pytest.raises(DbspaceError):
            dbspace.read_page(make_block_locator(0, 1))


class TestBlockDbspace:
    def test_every_write_allocates_a_fresh_run(self):
        dbspace = make_block()
        locator = dbspace.write_page(b"v1")
        other = dbspace.write_page(b"v2")
        assert other != locator
        assert dbspace.read_pages([locator, other]) == {locator: b"v1",
                                                        other: b"v2"}

    def test_batch_that_does_not_fit_takes_no_space(self):
        """Allocation is all or nothing: runs taken before the freelist ran
        out go back, or they would be checkpointed and never freed."""
        device = BlockDevice(ram_disk(), 4096, 4, clock=VirtualClock())
        dbspace = BlockDbspace("sys", device)
        with pytest.raises(FreelistError):
            dbspace.write_pages([b"x" * 4096] * 5)
        assert dbspace.freelist.used_blocks == 0
        assert device.stored_bytes() == 0
        assert len(dbspace.write_pages([b"y" * 4096] * 4)) == 4

    def test_free_page_returns_blocks(self):
        dbspace = make_block()
        locator = dbspace.write_page(b"x" * 5000)
        used = dbspace.freelist.used_blocks
        dbspace.free_page(locator)
        assert dbspace.freelist.used_blocks < used

    def test_freelist_device_agreement_checked(self):
        device = BlockDevice(ram_disk(), 4096, 1000, clock=VirtualClock())
        from repro.blockstore.freelist import Freelist

        with pytest.raises(DbspaceError):
            BlockDbspace("sys", device, Freelist(999))
