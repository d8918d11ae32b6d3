"""Unit tests for the Database engine facade."""

import pytest

from repro.engine import Database, DatabaseConfig, EngineError
from tests.conftest import make_db

MIB = 1024 * 1024


def test_default_configuration_builds():
    db = make_db()
    assert db.object_store is not None
    assert db.ocm is not None
    assert db.clock.now() >= 0


def test_ebs_configuration_builds():
    db = make_db(user_volume="ebs")
    assert db.object_store is None
    assert db.user_device is not None
    assert not db.user_dbspace.is_cloud


def test_efs_configuration_builds():
    db = make_db(user_volume="efs")
    assert db.user_device.profile.name == "user-efs"


def test_unknown_volume_rejected():
    with pytest.raises(EngineError):
        make_db(user_volume="tape")


@pytest.mark.parametrize("rate_scale", [0.0, -1.0, float("nan"),
                                        float("inf")])
def test_rate_scale_must_be_positive_and_finite(rate_scale):
    with pytest.raises(ValueError, match="rate scale must be positive"):
        Database(DatabaseConfig(rate_scale=rate_scale))


def test_ocm_disabled():
    db = make_db(ocm_enabled=False)
    assert db.ocm is None
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"direct")
    db.commit(txn)
    reader = db.begin()
    assert db.read_page(reader, "t", 0) == b"direct"
    db.commit(reader)


def test_page_roundtrip_on_block_volume():
    db = make_db(user_volume="ebs")
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"block data")
    db.commit(txn)
    reader = db.begin()
    assert db.read_page(reader, "t", 0) == b"block data"
    db.commit(reader)


def test_crashed_database_rejects_work():
    db = make_db()
    db.create_object("t")
    db.crash()
    with pytest.raises(EngineError):
        db.begin()
    with pytest.raises(EngineError):
        db.create_object("t2")


def test_restart_requires_crash():
    db = make_db()
    with pytest.raises(EngineError):
        db.restart()


def test_crash_restart_preserves_committed_data():
    db = make_db()
    db.create_object("t")
    txn = db.begin()
    for page in range(10):
        db.write_page(txn, "t", page, b"page-%02d" % page)
    db.commit(txn)
    db.crash()
    db.restart()
    reader = db.begin()
    for page in range(10):
        assert db.read_page(reader, "t", page) == b"page-%02d" % page
    db.commit(reader)


def test_crash_discards_uncommitted_data():
    db = make_db()
    db.create_object("t")
    committed = db.begin()
    db.write_page(committed, "t", 0, b"durable")
    db.commit(committed)
    doomed = db.begin()
    db.write_page(doomed, "t", 0, b"volatile")
    db.crash()
    db.restart()
    reader = db.begin()
    assert db.read_page(reader, "t", 0) == b"durable"
    db.commit(reader)


def test_restart_gc_reclaims_orphans():
    db = make_db()
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"orphan to be")
    db.buffer.flush_txn(txn.txn_id, commit_mode=False)
    if db.ocm is not None:
        db.ocm.drain_all()
    orphans = db.object_store.object_count()
    assert orphans > 0
    db.crash()
    db.restart()
    assert db.object_store.object_count() == 0


def test_monthly_storage_cost_reflects_volume():
    cloud = make_db()
    cloud.create_object("t")
    txn = cloud.begin()
    txn_pages = [(i, bytes([i % 251]) * 4096) for i in range(32)]
    for page, data in txn_pages:
        cloud.write_page(txn, "t", page, data)
    cloud.commit(txn)
    assert cloud.user_data_bytes() > 0
    assert cloud.monthly_storage_cost() > 0


def test_stats_shape():
    db = make_db()
    stats = db.stats()
    assert "clock_seconds" in stats
    assert "buffer" in stats
    assert "ocm" in stats
    assert "object_store" in stats


def test_snapshot_requires_retention():
    db = make_db()
    with pytest.raises(EngineError):
        db.create_snapshot()


def test_deterministic_replay():
    """Two identically-seeded engines produce identical timelines."""

    def run():
        db = make_db(seed=99)
        db.create_object("t")
        txn = db.begin()
        for page in range(20):
            db.write_page(txn, "t", page, bytes([page]) * 1024)
        db.commit(txn)
        reader = db.begin()
        for page in range(20):
            db.read_page(reader, "t", page)
        db.commit(reader)
        return db.clock.now()

    assert run() == run()
