"""Unit tests for the transaction manager: MVCC, locks, commit-chain GC."""

import pytest

from repro.core.txn import TransactionError, TxnStatus
from tests.conftest import make_db


def write_pages(db, txn, name, pages, payload=b"x" * 512):
    for page in pages:
        db.write_page(txn, name, page, payload + b"-%d" % page)


def test_commit_publishes_new_version(db):
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(5))
    db.commit(txn)
    assert txn.status is TxnStatus.COMMITTED
    identity = db.catalog.current(db.catalog.object_id("t"))
    assert identity.version == 1
    assert identity.page_count == 5


def test_snapshot_isolation_readers_see_old_version(db):
    db.create_object("t")
    writer1 = db.begin()
    write_pages(db, writer1, "t", [0])
    db.commit(writer1)

    reader = db.begin()
    assert db.read_page(reader, "t", 0).startswith(b"x")

    writer2 = db.begin()
    db.write_page(writer2, "t", 0, b"NEW")
    db.commit(writer2)

    # The reader still sees its snapshot.
    assert db.read_page(reader, "t", 0).startswith(b"x")
    db.commit(reader)
    late = db.begin()
    assert db.read_page(late, "t", 0) == b"NEW"
    db.commit(late)


def test_writer_reads_own_writes(db):
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"mine")
    assert db.read_page(txn, "t", 0) == b"mine"
    db.commit(txn)


def test_write_write_conflict(db):
    db.create_object("t")
    a = db.begin()
    b = db.begin()
    db.write_page(a, "t", 0, b"a")
    with pytest.raises(TransactionError):
        db.write_page(b, "t", 0, b"b")
    db.rollback(a)
    # After release the second writer can proceed.
    db.write_page(b, "t", 0, b"b")
    db.commit(b)


def test_object_created_later_not_visible(db):
    txn = db.begin()
    db.create_object("late")
    with pytest.raises(TransactionError):
        db.read_page(txn, "late", 0)
    db.rollback(txn)


def test_begin_snapshot_is_current_versions_and_private(db):
    """Characterisation of ``begin()``: the snapshot is exactly
    ``{object_id: current version}`` over created, dropped and re-published
    objects, and later catalog changes never leak into it."""
    ids = {name: db.create_object(name) for name in ("zeta", "alpha", "mid", "gone")}
    for name, commits in (("alpha", 2), ("mid", 1)):
        for __ in range(commits):
            writer = db.begin()
            write_pages(db, writer, name, [0])
            db.commit(writer)
    db.catalog.drop_object(ids["gone"])

    txn = db.begin()
    assert txn.snapshot == {ids["zeta"]: 0, ids["alpha"]: 2, ids["mid"]: 1}
    assert txn.snapshot == {
        db.catalog.object_id(name): db.catalog.current(db.catalog.object_id(name)).version
        for name in db.catalog.object_names()
    }
    before = dict(txn.snapshot)

    late = db.create_object("late")
    writer = db.begin()
    write_pages(db, writer, "alpha", [1])
    db.commit(writer)
    assert db.catalog.current(ids["alpha"]).version == 3
    assert txn.snapshot == before
    assert late not in txn.snapshot
    with pytest.raises(TransactionError):
        db.read_page(txn, "late", 0)
    # Two open transactions never share one snapshot dict.
    other = db.begin()
    assert other.snapshot[ids["alpha"]] == 3 and late in other.snapshot
    assert other.snapshot is not txn.snapshot
    db.rollback(other)
    db.rollback(txn)


def test_begin_makes_constant_catalog_calls_whatever_the_catalog_size(monkeypatch):
    """Scaling guard by call count: ``begin()`` takes its snapshot as one
    bulk copy, not per-object ``object_id``/``current`` lookups."""
    from repro.storage.identity import Catalog

    calls = {"current": 0, "object_id": 0, "object_names": 0}
    for name in calls:
        original = getattr(Catalog, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Catalog, name, counted)

    per_size = {}
    for size in (50, 2000):
        db = make_db()
        for index in range(size):
            db.catalog.register_object(f"obj{index}")
        for name in calls:
            calls[name] = 0
        txn = db.begin()
        per_size[size] = sum(calls.values())
        assert len(txn.snapshot) == size
        db.rollback(txn)
    assert per_size[50] == per_size[2000] <= 2


def test_rollback_deletes_allocations(db):
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(5))
    db.buffer.flush_txn(txn.txn_id, commit_mode=False)
    if db.ocm is not None:
        db.ocm.drain_all()
    before = db.object_store.object_count()
    assert before > 0
    db.rollback(txn)
    assert db.object_store.object_count() == 0
    assert txn.status is TxnStatus.ROLLED_BACK


def test_rollback_does_not_trim_active_set(db):
    """The Section 3.3 optimization: rollbacks stay local."""
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(3))
    db.buffer.flush_txn(txn.txn_id, commit_mode=False)
    active_before = db.keygen.active_set(db.config.node_id).key_count()
    db.rollback(txn)
    assert db.keygen.active_set(db.config.node_id).key_count() == active_before


def test_commit_trims_active_set(db):
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(3))
    db.commit(txn)
    consumed = db.keygen.max_allocated_key - db.keygen.active_set(
        db.config.node_id
    ).key_count()
    # Some keys were consumed and trimmed away.
    assert db.keygen.active_set("coordinator").key_count() < (
        db.keygen.max_allocated_key - (1 << 63) + 1
    )


def test_gc_deferred_while_referenced(db):
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(4))
    db.commit(txn)

    reader = db.begin()
    db.read_page(reader, "t", 0)

    update = db.begin()
    db.write_page(update, "t", 0, b"v2")
    db.commit(update)

    # The old version is pinned by the reader: nothing deleted yet.
    assert db.txn_manager.chain_length() >= 1
    deleted_before = db.txn_manager.stats["gc_pages_deleted"]
    db.commit(reader)
    assert db.txn_manager.stats["gc_pages_deleted"] > deleted_before


def test_gc_never_deletes_reachable_pages(db):
    db.create_object("t")
    txn = db.begin()
    write_pages(db, txn, "t", range(8))
    db.commit(txn)
    for round_no in range(3):
        update = db.begin()
        db.write_page(update, "t", round_no, b"round-%d" % round_no)
        db.commit(update)
    check = db.begin()
    for page in range(8):
        assert db.read_page(check, "t", page)  # all pages still readable
    db.commit(check)


def test_double_commit_rejected(db):
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"x")
    db.commit(txn)
    with pytest.raises(TransactionError):
        db.commit(txn)
    with pytest.raises(TransactionError):
        db.rollback(txn)


def test_read_only_commit_is_cheap(db):
    db.create_object("t")
    txn = db.begin()
    db.commit(txn)
    assert db.txn_manager.stats["commits"] == 1


def test_adopt_requires_active():
    db = make_db()
    db.create_object("t")
    txn = db.begin()
    db.rollback(txn)
    with pytest.raises(TransactionError):
        db.txn_manager.adopt(txn)
