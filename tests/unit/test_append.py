"""Unit tests for incremental appends (trickle loads)."""

import numpy as np
import pytest

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.columnar.encoding import EncodingError
from repro.core.buffer import BufferError
from repro.tpch.dates import d
from tests.conftest import make_db


@pytest.fixture
def loaded():
    db = make_db()
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "events",
        (
            ColumnSchema("id", "int", hg_index=True),
            ColumnSchema("when", "date"),
            ColumnSchema("note", "str"),
            ColumnSchema("value", "float"),
        ),
        partition_column="id",
        partition_count=2,
        rows_per_page=64,
    ))
    base_rows = [
        (i, d(1994, 1 + (i % 6), 1), f"base note {i}", float(i))
        for i in range(1, 501)
    ]
    store.load("events", base_rows)
    return db, store, base_rows


def make_new_rows(start, count):
    return [
        (i, d(1995, 1 + (i % 6), 1), f"fresh insert {i}", float(i) * 2)
        for i in range(start, start + count)
    ]


def test_append_extends_row_count(loaded):
    db, store, base_rows = loaded
    new_rows = make_new_rows(501, 100)
    state = store.append("events", new_rows)
    assert state.total_rows == 600
    with QueryContext(db) as ctx:
        rel = ctx.read("events", ["id"])
    assert sorted(rel["id"]) == list(range(1, 601))


def test_append_fills_partial_pages(loaded):
    """The last partial page is merged, not left ragged."""
    db, store, __ = loaded
    store.append("events", make_new_rows(501, 10))
    with QueryContext(db) as ctx:
        state = ctx.table("events")
        for partition in range(state.schema.partition_count):
            pages = state.pages_in_partition(partition)
            rows = state.partition_rows[partition]
            assert pages == (rows + 63) // 64


def test_appended_values_correct(loaded):
    db, store, __ = loaded
    new_rows = make_new_rows(501, 50)
    store.append("events", new_rows)
    with QueryContext(db) as ctx:
        rel = ctx.read("events", ["id", "value"], {"id": (501, 550)})
    assert sorted(rel["id"]) == [row[0] for row in new_rows]
    got = dict(zip(rel["id"], rel["value"]))
    for row in new_rows:
        assert got[row[0]] == row[3]


def test_append_routes_by_original_bounds(loaded):
    """New low keys land in the low partition, not appended at the end."""
    db, store, __ = loaded
    with QueryContext(db) as ctx:
        before = ctx.table("events").partition_rows[:]
    store.append("events", [(0, d(1995, 1, 1), "low key", 0.0)])
    with QueryContext(db) as ctx:
        after = ctx.table("events").partition_rows[:]
    assert after[0] == before[0] + 1
    assert after[1] == before[1]


def test_hg_index_extended(loaded):
    db, store, __ = loaded
    store.append("events", make_new_rows(501, 20))
    with QueryContext(db) as ctx:
        hg = ctx.hg("events", "id")
        rows = ctx.read_rows("events", ["id"], hg.lookup(510))
        assert rows["id"] == [510]
        # Old entries still resolve.
        rows = ctx.read_rows("events", ["id"], hg.lookup(42))
        assert rows["id"] == [42]


def test_zone_maps_cover_appended_pages(loaded):
    db, store, __ = loaded
    store.append("events", make_new_rows(501, 100))
    with QueryContext(db) as ctx:
        rel = ctx.read("events", ["id"], {"id": (590, 600)})
    assert sorted(rel["id"]) == list(range(590, 601))


def test_append_is_transactional(loaded):
    db, store, __ = loaded
    txn = db.begin()
    store.append("events", make_new_rows(501, 10), txn=txn)
    db.rollback(txn)
    with QueryContext(db) as ctx:
        rel = ctx.read("events", ["id"])
    assert len(rel["id"]) == 500  # the append vanished


def test_multiple_appends_accumulate(loaded):
    db, store, __ = loaded
    for start in (501, 601, 701):
        store.append("events", make_new_rows(start, 100))
    with QueryContext(db) as ctx:
        rel = ctx.read("events", ["id"])
    assert sorted(rel["id"]) == list(range(1, 801))


def test_append_empty_is_noop(loaded):
    db, store, __ = loaded
    state = store.append("events", [])
    assert state.total_rows == 500


def test_router_sends_a_key_equal_to_a_bound_right():
    bounds = [10, 20]
    keys = [5, 10, 11, 20, 25, 9]
    expected = [0, 1, 1, 2, 2, 0]
    assert ColumnStore._partitions_of(keys, bounds).tolist() == expected
    assert ColumnStore._partitions_of(
        np.array(keys, dtype=np.int64), bounds).tolist() == expected
    assert ColumnStore._partitions_of(["b", "a"], ["b"]).tolist() == [1, 0]


def test_append_routes_a_key_equal_to_a_bound_right(loaded):
    db, store, __ = loaded
    with QueryContext(db) as ctx:
        before = ctx.table("events")
    (bound,) = before.partition_bounds
    # The load routed ids 1..500 the same way: the bound opens partition 1.
    assert before.partition_rows == [bound - 1, 500 - (bound - 1)]
    state = store.append("events", make_new_rows(bound, 1))
    assert state.partition_rows == [before.partition_rows[0],
                                    before.partition_rows[1] + 1]


# --------------------------------------------------------------------- #
# a refused write rolls back the transaction it opened
# --------------------------------------------------------------------- #

def test_oversized_append_leaves_no_transaction_and_no_lock(loaded):
    db, store, base_rows = loaded
    wide = [(i, d(1995, 1, 1), "x" * 400 + str(i), 0.0)
            for i in range(501, 629)]
    with pytest.raises(BufferError, match="exceeds page size"):
        store.append("events", wide)
    assert db.txn_manager.active_transactions() == []
    assert store.append("events", make_new_rows(501, 10)).total_rows == 510
    assert store.load("events", base_rows).total_rows == 500


def test_refused_load_leaves_no_transaction_and_gc_runs(loaded):
    db, store, __ = loaded
    store.create_table(TableSchema(
        "wide", (ColumnSchema("v", "int"),), rows_per_page=8))
    with pytest.raises(EncodingError):
        store.load("wide", [(1 << 63,)])
    assert db.txn_manager.active_transactions() == []
    for value in range(5):
        store.load("wide", [(value,)])
    # Nothing holds back the GC horizon: every replaced page is freed.
    assert db.txn_manager.chain_length() == 0
    with QueryContext(db) as ctx:
        assert ctx.read("wide", ["v"])["v"].tolist() == [4]


def test_refused_delete_leaves_no_transaction(loaded):
    db, store, __ = loaded
    with pytest.raises(ValueError):
        store.delete_rows("events", ["not a row id"])
    assert db.txn_manager.active_transactions() == []
    with QueryContext(db) as ctx:
        row_ids = ctx.read("events", ["id"], with_rowids=True)["__rowid"]
    assert store.delete_rows("events", row_ids[:3]) == 3
