"""Unit tests for multiple cloud dbspaces, custom page sizes, table moves."""

import pytest

from repro.engine import EngineError
from repro.objectstore.s3sim import AZURE_BLOB_PROFILE
from tests.conftest import make_db


def test_create_cloud_dbspace_and_store_pages():
    db = make_db()
    dbspace = db.create_cloud_dbspace("archive")
    db.create_object("t", dbspace="archive")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"archived data")
    db.commit(txn)
    reader = db.begin()
    assert db.read_page(reader, "t", 0) == b"archived data"
    db.commit(reader)
    # The page landed on the new bucket, not the primary user one.
    assert dbspace.stored_bytes() > 0


def test_duplicate_dbspace_rejected():
    db = make_db()
    db.create_cloud_dbspace("x")
    with pytest.raises(EngineError):
        db.create_cloud_dbspace("x")
    with pytest.raises(EngineError):
        db.create_cloud_dbspace("user")


def test_custom_page_size_enforced():
    db = make_db(page_size=16 * 1024)
    db.create_cloud_dbspace("bigpages", page_size=64 * 1024)
    db.create_cloud_dbspace("smallpages", page_size=4 * 1024)
    assert db.page_size_for("bigpages") == 64 * 1024
    assert db.page_size_for("user") == 16 * 1024

    db.create_object("big", dbspace="bigpages")
    db.create_object("small", dbspace="smallpages")
    txn = db.begin()
    # Larger-than-default pages are legal on the big-page dbspace...
    db.write_page(txn, "big", 0, b"x" * (48 * 1024))
    # ...and the small-page dbspace enforces its own limit.
    from repro.core.buffer import BufferError

    with pytest.raises(BufferError):
        db.write_page(txn, "small", 0, b"x" * (8 * 1024))
    db.write_page(txn, "small", 0, b"x" * (4 * 1024))
    db.commit(txn)


def test_invalid_page_size_rejected():
    db = make_db()
    with pytest.raises(EngineError):
        db.create_cloud_dbspace("bad", page_size=1000)


def test_azure_profile_dbspace():
    db = make_db()
    azure = db.create_cloud_dbspace("azure", profile=AZURE_BLOB_PROFILE)
    db.create_object("t", dbspace="azure")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"on azure")
    db.commit(txn)
    # Requests were billed against the Azure price book.
    assert db.meter.request_cost("azure-blob") > 0


def _prefix_rates(dbspace):
    profile = dbspace.io.client.store.profile
    return profile.per_prefix_put_rate, profile.per_prefix_get_rate


def test_extra_dbspace_request_rates_follow_its_own_profile_and_page():
    # Per-prefix request rates are per-op rates: x 2 * 512 KiB / page size
    # of the dbspace they serve, from the dbspace's own store profile.
    db = make_db(page_size=16 * 1024)  # x64 per op at rate scale 1
    assert _prefix_rates(db.create_cloud_dbspace("s3")) == (224000.0,
                                                            352000.0)
    assert _prefix_rates(db.create_cloud_dbspace(
        "azure", profile=AZURE_BLOB_PROFILE)) == (128000.0, 256000.0)
    assert _prefix_rates(db.create_cloud_dbspace(
        "big", page_size=64 * 1024)) == (56000.0, 88000.0)
    assert _prefix_rates(db.create_cloud_dbspace(
        "azure-big", page_size=64 * 1024,
        profile=AZURE_BLOB_PROFILE)) == (32000.0, 64000.0)


def test_extra_dbspace_request_rates_shrink_with_the_rate_scale():
    db = make_db(page_size=16 * 1024, rate_scale=0.5)
    assert _prefix_rates(db.create_cloud_dbspace(
        "azure", profile=AZURE_BLOB_PROFILE)) == (64000.0, 128000.0)
    assert _prefix_rates(db.create_cloud_dbspace("s3")) == _prefix_rates(
        db.user_dbspace)


def test_keys_unique_across_dbspaces():
    """The key generator is global: dbspaces never collide on keys."""
    db = make_db()
    db.create_cloud_dbspace("second")
    db.create_object("a", dbspace="user")
    db.create_object("b", dbspace="second")
    txn = db.begin()
    for page in range(5):
        db.write_page(txn, "a", page, b"A%d" % page)
        db.write_page(txn, "b", page, b"B%d" % page)
    db.commit(txn)
    keys_a = set(txn.all_allocated_for("user").cloud_keys())
    keys_b = set(txn.all_allocated_for("second").cloud_keys())
    assert keys_a and keys_b
    assert keys_a.isdisjoint(keys_b)


def test_restart_gc_covers_extra_dbspaces():
    db = make_db()
    db.create_cloud_dbspace("second")
    db.create_object("t", dbspace="second")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"orphan")
    db.buffer.flush_txn(txn.txn_id, commit_mode=False)
    second = db.node.dbspace("second")
    assert second.stored_bytes() > 0
    db.crash()
    db.restart()
    assert second.stored_bytes() == 0


def test_gc_after_recovery_reaches_extra_dbspaces():
    db = make_db()
    db.create_cloud_dbspace("second")
    db.create_object("t", dbspace="second")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"v1" * 100)
    db.commit(txn)
    db.crash()
    db.restart()
    update = db.begin()
    db.write_page(update, "t", 0, b"v2" * 100)
    db.commit(update)
    # Old v1 pages on the extra dbspace were garbage collected.
    reader = db.begin()
    assert db.read_page(reader, "t", 0) == b"v2" * 100
    db.commit(reader)
