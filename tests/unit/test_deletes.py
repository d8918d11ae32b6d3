"""Unit tests for row deletion (tombstones) and refresh-style workloads."""

import numpy as np
import pytest

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.columnar.deletes import RowIdSet
from repro.columnar.query import ROWID
from tests.conftest import lists, make_db


class TestRowIdSet:
    def test_membership_and_count(self):
        ids = RowIdSet()
        assert ids.add_many([5, 6, 7, 100]) == 4
        assert 6 in ids and 100 in ids and 8 not in ids
        assert len(ids) == 4

    def test_ranges_merge(self):
        ids = RowIdSet()
        ids.add_many([1, 2, 3])
        ids.add_many([4, 5])
        assert ids.to_bytes() == RowIdSet([(1, 5)]).to_bytes()

    def test_duplicates_not_recounted(self):
        ids = RowIdSet()
        ids.add_many([1, 2])
        assert ids.add_many([2, 3]) == 1

    def test_numpy_row_ids_persist_as_ints(self):
        # A scan's __rowid column is a numpy vector of np.int64.
        ids = RowIdSet()
        assert ids.add_many(np.array([10, 11, 50], dtype=np.int64)) == 3
        assert ids.to_bytes() == RowIdSet([(10, 11), (50, 50)]).to_bytes()

    def test_serialization_roundtrip(self):
        ids = RowIdSet()
        ids.add_many([10, 11, 50])
        restored = RowIdSet.from_bytes(ids.to_bytes())
        assert 11 in restored and 50 in restored and 12 not in restored

    def test_empty_truthiness(self):
        assert not RowIdSet()
        full = RowIdSet()
        full.add_many([1])
        assert full


@pytest.fixture
def loaded():
    db = make_db()
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "orders",
        (ColumnSchema("id", "int", hg_index=True),
         ColumnSchema("total", "float")),
        partition_column="id",
        partition_count=2,
        rows_per_page=64,
    ))
    store.load("orders", [(i, float(i)) for i in range(1, 401)])
    return db, store


def test_deleted_rows_disappear_from_scans(loaded):
    db, store = loaded
    with QueryContext(db) as ctx:
        doomed = ctx.read("orders", ["id"], {"id": (100, 149)},
                          with_rowids=True)[ROWID]
    assert store.delete_rows("orders", doomed) == 50
    with QueryContext(db) as ctx:
        rel = ctx.read("orders", ["id"])
    assert sorted(rel["id"]) == [
        i for i in range(1, 401) if not 100 <= i <= 149
    ]


def test_deleted_rows_invisible_to_index_lookups(loaded):
    db, store = loaded
    with QueryContext(db) as ctx:
        hg = ctx.hg("orders", "id")
        target = ctx.read("orders", ["id"], {"id": (7, 7)},
                          with_rowids=True)[ROWID]
    store.delete_rows("orders", target)
    with QueryContext(db) as ctx:
        hg = ctx.hg("orders", "id")
        assert lists(ctx.read_rows("orders", ["id"], hg.lookup(7))) == \
            {"id": []}
        assert lists(ctx.read_rows("orders", ["id"], hg.lookup(8)))["id"] == \
            [8]


def test_delete_is_transactional(loaded):
    db, store = loaded
    with QueryContext(db) as ctx:
        doomed = ctx.read("orders", ["id"], {"id": (1, 10)},
                          with_rowids=True)[ROWID]
    txn = db.begin()
    store.delete_rows("orders", doomed, txn=txn)
    db.rollback(txn)
    with QueryContext(db) as ctx:
        rel = ctx.read("orders", ["id"], {"id": (1, 10)})
    assert len(rel["id"]) == 10  # the delete vanished


def test_refresh_function_style_workload(loaded):
    """RF1/RF2: insert a batch, delete a batch, verify the net state."""
    db, store = loaded
    store.append("orders", [(i, float(i)) for i in range(401, 451)])
    with QueryContext(db) as ctx:
        doomed = ctx.read("orders", ["id"], {"id": (1, 50)},
                          with_rowids=True)[ROWID]
    store.delete_rows("orders", doomed)
    with QueryContext(db) as ctx:
        rel = ctx.read("orders", ["id"])
    assert sorted(rel["id"]) == list(range(51, 451))


def test_repeated_deletes_accumulate(loaded):
    db, store = loaded
    for lo in (1, 51, 101):
        with QueryContext(db) as ctx:
            doomed = ctx.read("orders", ["id"], {"id": (lo, lo + 49)},
                              with_rowids=True)[ROWID]
        store.delete_rows("orders", doomed)
    with QueryContext(db) as ctx:
        rel = ctx.read("orders", ["id"])
    assert sorted(rel["id"]) == list(range(151, 401))


def test_delete_of_deleted_rows_is_noop(loaded):
    db, store = loaded
    with QueryContext(db) as ctx:
        doomed = ctx.read("orders", ["id"], {"id": (1, 5)},
                          with_rowids=True)[ROWID]
    assert store.delete_rows("orders", doomed) == 5
    assert store.delete_rows("orders", doomed) == 0
