"""Unit tests for schemas, zone maps, HG indexes and blob storage."""

import numpy as np
import pytest

from repro.columnar.blob import read_blob, write_blob
from repro.columnar.hgindex import HgIndex
from repro.columnar.schema import (
    ColumnSchema,
    SchemaError,
    TableSchema,
    TableState,
)
from repro.columnar.zonemap import ZoneMaps


class TestSchema:
    def make(self, **overrides):
        defaults = dict(
            name="t",
            columns=(
                ColumnSchema("a", "int", hg_index=True),
                ColumnSchema("b", "str"),
            ),
            partition_column="a",
            partition_count=2,
        )
        defaults.update(overrides)
        return TableSchema(**defaults)

    def test_basic_accessors(self):
        schema = self.make()
        assert schema.column_names() == ["a", "b"]
        assert schema.indexed_columns() == ["a"]
        assert schema.column("b").kind == "str"

    def test_object_names(self):
        schema = self.make()
        assert schema.column_object("a", 1) == "t/a#p1"
        assert schema.zonemap_object() == "t/__zonemaps"
        assert schema.hg_object("a") == "t/a__hg"
        assert schema.meta_object() == "t/__meta"

    def test_validation(self):
        with pytest.raises(SchemaError):
            ColumnSchema("x", "decimal")
        with pytest.raises(SchemaError):
            self.make(columns=())
        with pytest.raises(SchemaError):
            self.make(columns=(ColumnSchema("a", "int"),
                               ColumnSchema("a", "int")))
        with pytest.raises(SchemaError):
            self.make(partition_column=None)  # 2 partitions need a column
        with pytest.raises(SchemaError):
            self.make(partition_column="zzz")
        with pytest.raises(SchemaError):
            self.make().hg_object("b")
        with pytest.raises(SchemaError):
            self.make().column_object("a", 5)

    def test_serialization_roundtrip(self):
        schema = self.make()
        assert TableSchema.from_dict(schema.to_dict()) == schema

    def test_state_pages_and_rows(self):
        schema = self.make(rows_per_page=100)
        state = TableState(schema, partition_rows=[250, 100],
                           partition_bounds=[500])
        assert state.total_rows == 350
        assert state.pages_in_partition(0) == 3
        assert state.pages_in_partition(1) == 1

    def test_state_json_roundtrip(self):
        schema = self.make(rows_per_page=64)
        state = TableState(schema, [10, 20], [5])
        restored = TableState.from_json(state.to_json())
        assert restored.schema == schema
        assert restored.partition_rows == [10, 20]
        assert restored.partition_bounds == [5]


class TestZoneMaps:
    def test_prune_by_range(self):
        maps = ZoneMaps()
        maps.set_page("c", 0, 0, 0, 9, 10)
        maps.set_page("c", 0, 1, 10, 19, 10)
        maps.set_page("c", 0, 2, 20, 29, 10)
        assert maps.prune("c", 0, 12, 15) == [1]
        assert maps.prune("c", 0, 5, 25) == [0, 1, 2]
        assert maps.prune("c", 0, 100, 200) == []

    def test_open_bounds(self):
        maps = ZoneMaps()
        maps.set_page("c", 0, 0, 0, 9, 10)
        maps.set_page("c", 0, 1, 10, 19, 10)
        assert maps.prune("c", 0, None, 9) == [0]
        assert maps.prune("c", 0, 10, None) == [1]
        assert maps.prune("c", 0, None, None) == [0, 1]

    def test_string_zones(self):
        maps = ZoneMaps()
        maps.set_page("s", 0, 0, "apple", "mango", 5)
        maps.set_page("s", 0, 1, "nectarine", "zucchini", 5)
        assert maps.prune("s", 0, "banana", "cherry") == [0]

    def test_partitions_independent(self):
        maps = ZoneMaps()
        maps.set_page("c", 0, 0, 0, 9, 10)
        maps.set_page("c", 1, 0, 100, 109, 10)
        assert maps.prune("c", 1, 105, 106) == [0]

    def test_serialization_roundtrip(self):
        maps = ZoneMaps()
        maps.set_page("c", 0, 0, 1, 2, 3)
        maps.set_page("s", 1, 0, "a", "b", 4)
        restored = ZoneMaps.from_bytes(maps.to_bytes())
        assert restored.pages("c", 0) == [(1, 2, 3)]
        assert restored.pages("s", 1) == [("a", "b", 4)]

    def test_set_page_replaces_a_stored_page_or_adds_the_next(self):
        maps = ZoneMaps()
        maps.set_page("c", 0, 0, 0, 9, 10)
        maps.set_page("c", 0, 1, 10, 14, 5)
        maps.set_page("c", 0, 1, 10, 19, 10)
        assert maps.pages("c", 0) == [(0, 9, 10), (10, 19, 10)]
        with pytest.raises(IndexError):
            maps.set_page("c", 0, 3, 30, 39, 10)


def build(values, first_row_id):
    """The HG index of consecutive rows starting at ``first_row_id``."""
    return HgIndex.build(np.array(values),
                         first_row_id + np.arange(len(values)))


class TestHgIndex:
    def test_point_lookup(self):
        index = build([5, 7, 5, 9, 5], first_row_id=100)
        assert index.lookup(5) == [100, 102, 104]
        assert index.lookup(999) == []

    def test_range_compression_of_consecutive_rows(self):
        index = build([1] * 100, first_row_id=0)
        assert index.row_ranges(1) == [(0, 99)]

    def test_range_lookup(self):
        index = build([10, 20, 30, 40], first_row_id=0)
        assert index.lookup_range(15, 35) == [1, 2]
        assert index.lookup_range(None, 10) == [0]
        assert index.lookup_range(40, None) == [3]

    def test_distinct_count(self):
        index = build([1, 2, 1, 3], first_row_id=0)
        assert index.distinct_count == 3

    def test_serialization_roundtrip(self):
        index = build(["x", "y", "x"], first_row_id=10)
        restored = HgIndex.from_bytes(index.to_bytes())
        assert restored.lookup("x") == [10, 12]
        assert restored.lookup_range("x", "y") == [10, 11, 12]


class TestBlob:
    def test_roundtrip_small(self, db):
        db.create_object("blob")
        txn = db.begin()
        handle = db.open_for_write(txn, "blob")
        write_blob(db.buffer, handle, b"tiny", db.page_config.page_size)
        db.commit(txn)
        read_txn = db.begin()
        read_handle = db.open_for_read(read_txn, "blob")
        assert read_blob(db.buffer, read_handle) == b"tiny"
        db.commit(read_txn)

    def test_roundtrip_multi_page(self, db):
        payload = bytes(range(256)) * 300  # ~75 KB over 16 KB pages
        db.create_object("blob2")
        txn = db.begin()
        handle = db.open_for_write(txn, "blob2")
        pages = write_blob(db.buffer, handle, payload,
                           db.page_config.page_size)
        assert pages > 1
        db.commit(txn)
        read_txn = db.begin()
        read_handle = db.open_for_read(read_txn, "blob2")
        assert read_blob(db.buffer, read_handle) == payload
        db.commit(read_txn)

    def test_empty_blob(self, db):
        db.create_object("blob3")
        txn = db.begin()
        handle = db.open_for_write(txn, "blob3")
        write_blob(db.buffer, handle, b"", db.page_config.page_size)
        db.commit(txn)
        read_txn = db.begin()
        assert read_blob(db.buffer, db.open_for_read(read_txn, "blob3")) == b""
        db.commit(read_txn)
