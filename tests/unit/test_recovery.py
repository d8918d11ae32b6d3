"""Unit tests for crash recovery: checkpoint + log replay."""

from repro.core.recovery import recover
from tests.conftest import make_db


def write_pages(db, txn, name, pages, payload=b"z" * 256):
    for page in pages:
        db.write_page(txn, name, page, payload + b"-%d" % page)


def test_recover_empty_log_from_initial_checkpoint():
    db = make_db()
    recovered = recover(db.log)
    assert recovered.commit_seq == 0
    assert recovered.replayed_commits == 0


def test_replay_reconstructs_catalog_and_keygen():
    db = make_db()
    db.create_object("t")
    db.checkpoint()
    txn = db.begin()
    write_pages(db, txn, "t", range(3))
    db.commit(txn)
    max_key = db.keygen.max_allocated_key

    recovered = recover(db.log)
    assert recovered.replayed_commits == 1
    assert recovered.keygen.max_allocated_key == max_key
    oid = recovered.catalog.object_id("t")
    assert recovered.catalog.current(oid).version == 1


def test_replay_trims_active_sets():
    db = make_db()
    db.create_object("t")
    db.checkpoint()
    txn = db.begin()
    write_pages(db, txn, "t", range(3))
    db.commit(txn)
    live_active = db.keygen.active_set("coordinator").intervals()
    recovered = recover(db.log)
    assert recovered.keygen.active_set("coordinator").intervals() == live_active


def test_gc_collect_records_remove_chain_entries():
    db = make_db()
    db.create_object("t")
    db.checkpoint()
    for round_no in range(3):
        txn = db.begin()
        write_pages(db, txn, "t", [0])
        db.commit(txn)
    # All GC already ran (no concurrent readers): replayed chain is empty.
    recovered = recover(db.log)
    assert recovered.chain_entries == []


def test_pending_chain_entries_survive_recovery():
    db = make_db()
    db.create_object("t")
    db.checkpoint()
    setup = db.begin()
    write_pages(db, setup, "t", [0])
    db.commit(setup)
    reader = db.begin()
    db.read_page(reader, "t", 0)
    update = db.begin()
    db.write_page(update, "t", 0, b"v2")
    db.commit(update)  # GC deferred: reader pins the old version
    recovered = recover(db.log)
    assert len(recovered.chain_entries) >= 1
    db.rollback(reader)


def test_object_created_after_checkpoint_recovered():
    db = make_db()
    db.checkpoint()
    db.create_object("late")
    txn = db.begin()
    write_pages(db, txn, "late", [0])
    db.commit(txn)
    recovered = recover(db.log)
    assert recovered.catalog.has_object("late")


def test_rollback_replay_is_a_noop():
    db = make_db()
    db.create_object("t")
    db.checkpoint()
    txn = db.begin()
    write_pages(db, txn, "t", [0])
    db.rollback(txn)
    recovered = recover(db.log)
    assert recovered.replayed_commits == 0
    oid = recovered.catalog.object_id("t")
    assert recovered.catalog.current(oid).version == 0


def test_checkpoint_does_not_alias_the_live_freelist():
    db = make_db(user_volume="ebs", user_volume_size_bytes=1 << 30)
    db.checkpoint()
    freelist = db.user_dbspace.freelist
    at_checkpoint = freelist.to_bytes()
    freelist.allocate(10)
    recovered = recover(db.log)
    assert recovered.freelist.to_bytes() == at_checkpoint
    assert freelist.to_bytes() != at_checkpoint
