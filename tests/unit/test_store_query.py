"""Unit tests for the column store loader and query context scans."""

import pytest

from repro.columnar import ColumnStore, ColumnSchema, QueryContext, TableSchema
from repro.columnar.query import ROWID, n_rows
from repro.columnar.schema import SchemaError
from repro.sim.rng import DeterministicRng
from tests.conftest import lists, make_db


def make_table(db, partitions=2, rows=1000, rows_per_page=128):
    store = ColumnStore(db)
    schema = TableSchema(
        "items",
        (
            ColumnSchema("key", "int", hg_index=True),
            ColumnSchema("price", "float"),
            ColumnSchema("tag", "str"),
        ),
        partition_column="key",
        partition_count=partitions,
        rows_per_page=rows_per_page,
    )
    store.create_table(schema)
    rng = DeterministicRng(5, "items")
    data = [
        (i, round(rng.uniform(1, 100), 2), rng.choice(["red", "blue", "green"]))
        for i in range(1, rows + 1)
    ]
    state = store.load("items", data)
    return store, state, data


class TestLoad:
    def test_row_counts_and_partitions(self, db):
        store, state, data = make_table(db, partitions=4)
        assert state.total_rows == 1000
        assert len(state.partition_rows) == 4
        assert all(rows > 0 for rows in state.partition_rows)

    def test_partition_routing_by_range(self, db):
        store, state, __ = make_table(db, partitions=2)
        bound = state.partition_bounds[0]
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["key"])
        assert sorted(rel["key"]) == list(range(1, 1001))
        # Partition 0 holds keys below the bound only.
        loaded = ctx.table("items")
        assert loaded.partition_rows[0] == sum(
            1 for k in range(1, 1001) if k < bound
        )

    def test_duplicate_table_rejected(self, db):
        store, __, __ = make_table(db)
        with pytest.raises(SchemaError):
            store.create_table(store.schema("items"))

    def test_unknown_table_rejected(self, db):
        store = ColumnStore(db)
        with pytest.raises(SchemaError):
            store.schema("ghost")

    def test_rows_per_page_adapts_to_wide_values(self, db):
        store = ColumnStore(db)
        schema = TableSchema(
            "wide",
            (ColumnSchema("body", "str"),),
            rows_per_page=4096,
        )
        store.create_table(schema)
        rng = DeterministicRng(9)
        data = [("x" * rng.randint(50, 60) + str(i),) for i in range(5000)]
        state = store.load("wide", data)
        # The loader shrank the page fill so encoded pages fit.
        assert state.schema.rows_per_page < 4096
        with QueryContext(db) as ctx:
            rel = ctx.read("wide", ["body"])
        assert len(rel["body"]) == 5000

    def test_empty_load(self, db):
        store = ColumnStore(db)
        schema = TableSchema("empty", (ColumnSchema("a", "int"),))
        store.create_table(schema)
        state = store.load("empty", [])
        assert state.total_rows == 0
        with QueryContext(db) as ctx:
            assert lists(ctx.read("empty", ["a"])) == {"a": []}


class TestScan:
    def test_full_scan(self, db):
        __, __, data = make_table(db)
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["key", "price"])
        assert len(rel["key"]) == 1000
        assert sorted(rel["key"]) == [row[0] for row in data]

    def test_range_predicate_filters_and_prunes(self, db):
        make_table(db)
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["key"], {"key": (100, 149)})
        assert sorted(rel["key"]) == list(range(100, 150))

    def test_zone_map_pruning_reduces_page_reads(self, db):
        make_table(db, rows=4000, rows_per_page=128)

        def pages_read(run):
            db.buffer.invalidate_all()
            before = db.buffer.metrics.snapshot()
            with QueryContext(db) as ctx:
                run(ctx)
            after = db.buffer.metrics.snapshot()
            return (
                after.get("misses", 0) + after.get("prefetched", 0)
                - before.get("misses", 0) - before.get("prefetched", 0)
            )

        narrow = pages_read(
            lambda ctx: ctx.read("items", ["key"], {"key": (1, 10)})
        )
        full = pages_read(lambda ctx: ctx.read("items", ["key"]))
        assert narrow < full / 4

    def test_callable_predicate(self, db):
        make_table(db)
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["key", "tag"],
                           {"tag": lambda t: t == "red"})
        assert all(t == "red" for t in rel["tag"])
        assert 0 < len(rel["key"]) < 1000

    def test_predicate_column_not_in_output(self, db):
        make_table(db)
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["price"], {"key": (1, 5)})
        assert set(rel) == {"price"}
        assert len(rel["price"]) == 5

    def test_rowids(self, db):
        make_table(db, partitions=1)
        with QueryContext(db) as ctx:
            rel = ctx.read("items", ["key"], {"key": (10, 12)},
                           with_rowids=True)
        # Keys are 1-based, rows 0-based.
        assert lists(rel)[ROWID] == [9, 10, 11]

    def test_read_rows_by_rowid(self, db):
        make_table(db, partitions=2)
        with QueryContext(db) as ctx:
            full = ctx.read("items", ["key", "tag"], with_rowids=True)
            wanted = full[ROWID][100:110]
            expected_keys = full["key"][100:110]
            fetched = ctx.read_rows("items", ["key"], sorted(wanted))
        assert sorted(fetched["key"]) == sorted(expected_keys)

    def test_hg_index_matches_scan(self, db):
        make_table(db, partitions=2)
        with QueryContext(db) as ctx:
            index = ctx.hg("items", "key")
            via_index = ctx.read_rows("items", ["key", "price"],
                                      index.lookup(777))
            via_scan = ctx.read("items", ["key", "price"],
                                {"key": (777, 777)})
        via_index, via_scan = lists(via_index), lists(via_scan)
        assert via_index["key"] == via_scan["key"] == [777]
        assert via_index["price"] == via_scan["price"]

    def test_read_rows_empty(self, db):
        make_table(db)
        with QueryContext(db) as ctx:
            assert lists(ctx.read_rows("items", ["key"], [])) == {"key": []}

    def test_context_manager_rolls_back_on_error(self, db):
        make_table(db)
        with pytest.raises(RuntimeError):
            with QueryContext(db) as ctx:
                ctx.read("items", ["key"], {"key": (1, 1)})
                raise RuntimeError("boom")
        # The engine is still usable; the context's txn was rolled back.
        assert not db.txn_manager.active_transactions()
