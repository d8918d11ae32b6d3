"""The column store: DDL and the parallel load engine.

Loading follows SAP IQ's shape: input is read from an S3 bucket through the
instance NIC (sharing bandwidth with dbspace I/O — footnote 3 of the
paper), values are encoded into n-bit/dictionary pages, zone maps and HG
indexes are built as pages are produced, and everything is flushed through
the buffer manager inside one transaction whose commit makes the load
durable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.blob import read_blob, write_blob
from repro.columnar.deletes import RowIdSet
from repro.columnar.encoding import decode_values_np, encode_values
from repro.columnar.hgindex import HgIndex
from repro.columnar.schema import (
    SchemaError,
    TableSchema,
    TableState,
    make_row_id,
)
from repro.columnar.vec import to_list
from repro.columnar.zonemap import ZoneMaps
from repro.engine import Database
from repro.sim.crashpoints import SimulatedCrash
from repro.sim.metrics import MetricsRegistry

# CPU work units per value for load-path operations.
_ENCODE_OPS = 2.0
_INDEX_OPS = 2.0
_ROUTE_OPS = 0.5


class ColumnStore:
    """Columnar tables on top of a :class:`~repro.engine.Database`."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.metrics = MetricsRegistry()
        self._schemas: Dict[str, TableSchema] = {}

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #

    def create_table(self, schema: TableSchema) -> None:
        """Register every storage object the table needs."""
        if schema.name in self._schemas:
            raise SchemaError(f"table {schema.name!r} already exists")
        for partition in range(schema.partition_count):
            for column in schema.column_names():
                self.db.create_object(schema.column_object(column, partition))
        self.db.create_object(schema.zonemap_object())
        for column in schema.indexed_columns():
            self.db.create_object(schema.hg_object(column))
        self.db.create_object(schema.deleted_object())
        self.db.create_object(schema.meta_object())
        self._schemas[schema.name] = schema

    def schema(self, name: str) -> TableSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def table_names(self) -> "List[str]":
        return sorted(self._schemas)

    # ------------------------------------------------------------------ #
    # load engine
    # ------------------------------------------------------------------ #

    @staticmethod
    def _input_bytes(rows: "Sequence[Tuple[object, ...]]") -> int:
        """Approximate raw (CSV) input size of the rows."""
        if not rows:
            return 0
        sample = rows[: min(len(rows), 64)]
        # Column-major over the sample chunk: stringify each column once
        # instead of re-walking every row tuple (the per-row generator
        # pair dominated load-time profiling).  The total is the same
        # integer either way, so the estimate is bit-identical.
        total = sum(
            sum(len(str(value)) + 1 for value in column)
            for column in zip(*sample)
        )
        avg = total / len(sample)
        return int(avg * len(rows))

    @staticmethod
    def _fit_rows_per_page(
        schema: TableSchema,
        rows: "Sequence[Tuple[object, ...]]",
        page_size: int,
    ) -> TableSchema:
        """Shrink rows_per_page until encoded column pages fit a page.

        The fitted value is persisted with the table metadata, so readers
        use the effective page fill automatically.
        """
        if not rows:
            return schema
        effective = schema.rows_per_page
        names = schema.column_names()
        budget = int(page_size * 0.75)  # headroom for later, wider chunks
        while effective > 1:
            probe = rows[:effective]
            worst = max(
                len(
                    encode_values(
                        schema.column(column).kind,
                        [row[i] for row in probe],
                    )
                )
                for i, column in enumerate(names)
            )
            if worst <= budget:
                break
            effective //= 2
        if effective == schema.rows_per_page:
            return schema
        return TableSchema(
            name=schema.name,
            columns=schema.columns,
            partition_column=schema.partition_column,
            partition_count=schema.partition_count,
            rows_per_page=effective,
        )

    @staticmethod
    def _partitions_of(
        keys: "Sequence[object]", bounds: "Sequence[object]"
    ) -> "np.ndarray":
        """The partition of every key: ``bisect_right`` over the bounds.

        A key equal to a bound goes right, into the partition that bound
        opens.  A numpy key vector takes ``np.searchsorted`` with
        ``side="right"``, the same rule in one pass.
        """
        if isinstance(keys, np.ndarray):
            return np.searchsorted(np.asarray(bounds), keys, side="right")
        return np.fromiter((bisect_right(bounds, key) for key in keys),
                           dtype=np.intp, count=len(keys))

    def _route_rows(
        self, schema: TableSchema, rows: "Sequence[Tuple[object, ...]]"
    ) -> "Tuple[List[object], Optional[np.ndarray]]":
        """Range partitioning: the bounds (exclusive of the last) and the
        partition of every row; ``([], None)`` for one partition."""
        count = schema.partition_count
        if count == 1:
            return [], None
        keys = self._keys(schema, rows)
        ordered = sorted(to_list(keys))
        bounds = [ordered[(i * len(ordered)) // count] for i in range(1, count)]
        self.db.cpu.charge(_ROUTE_OPS * len(rows))
        return bounds, self._partitions_of(keys, bounds)

    @staticmethod
    def _keys(schema: TableSchema,
              rows: "Sequence[Tuple[object, ...]]") -> "Sequence[object]":
        """The partition column of ``rows`` (see :func:`_vector`)."""
        column = schema.partition_column
        index = schema.column_names().index(column)  # type: ignore[arg-type]
        return _vector(schema.column(column).kind,  # type: ignore[arg-type]
                       tuple(map(itemgetter(index), rows)))

    @staticmethod
    def _split(
        rows: "List[Tuple[object, ...]]",
        partition_of: "Optional[np.ndarray]",
        count: int,
    ) -> "Iterator[List[Tuple[object, ...]]]":
        """Each partition's rows in turn, in input order."""
        if partition_of is None:
            yield rows
            return
        for partition in range(count):
            yield list(map(rows.__getitem__,
                           np.flatnonzero(partition_of == partition).tolist()))

    @staticmethod
    def _columns(schema: TableSchema,
                 rows: "Sequence[Tuple[object, ...]]") -> "List[Sequence[object]]":
        """Transpose ``rows`` into one vector per column (see :func:`_vector`)."""
        kinds = [schema.column(column).kind for column in schema.column_names()]
        if not rows:
            return [() for __ in kinds]
        columns = list(zip(*rows))
        if len(columns) < len(kinds):
            raise SchemaError(
                f"a row has {len(columns)} values for {len(kinds)} columns"
            )
        return [_vector(kind, values) for kind, values in zip(kinds, columns)]

    @staticmethod
    def _page_bounds(values: "Sequence[object]") -> "Tuple[object, object]":
        """Zone-map min and max of one page, as python values."""
        if isinstance(values, np.ndarray):
            return int(values.min()), int(values.max())
        return min(values), max(values)

    def _stage_input(self, rows: "Sequence[Tuple[object, ...]]") -> None:
        """Reserve the NIC for reading ``rows`` from the S3 staging bucket.

        Input arrives through the same NIC the dbspace uses, so loads are
        network-visible.  Input streaming overlaps with processing: the
        clock does not wait for it, but the reservation delays dbspace I/O.
        """
        input_bytes = self._input_bytes(rows)
        if input_bytes:
            clock = self.db.clock
            self.metrics.series("input_bytes").record(clock.now(), input_bytes)
            self.db.nic.request(clock.now(), float(input_bytes))

    @contextmanager
    def _transaction(self, txn) -> "Iterator[object]":
        """``txn``, or a fresh transaction committed after the body.

        A fresh transaction is rolled back when the body raises, so a
        refused load, append or delete keeps no write lock and does not
        hold back GC.  A :class:`SimulatedCrash` is left to
        ``crash()``/``restart()``, and an error from the commit itself to
        the commit protocol.
        """
        if txn is not None:
            yield txn
            return
        txn = self.db.begin()
        try:
            yield txn
        except SimulatedCrash:
            raise
        except Exception:
            self.db.rollback(txn)
            raise
        self.db.commit(txn)

    def _write_partition(
        self,
        txn,
        schema: TableSchema,
        partition: int,
        columns: "List[Sequence[object]]",
        zonemaps: ZoneMaps,
        first_page: int = 0,
        rewritten: int = 0,
    ) -> "Dict[str, Sequence[object]]":
        """Encode and write one partition's pages a column vector at a time.

        Pages start at ``first_page``.  An append whose partition ends in
        a partial page passes that page and its row count, ``rewritten``:
        those rows are read back and written again ahead of ``columns``,
        and their index entries, which exist already, are not charged
        again.  Sets the zone maps and charges the CPU per page in the
        order the page writes interleave with it.  Returns the HG-indexed
        columns' vectors of the rows in ``columns``.
        """
        cpu = self.db.cpu
        names = schema.column_names()
        kinds = [schema.column(column).kind for column in names]
        indexed = schema.indexed_columns()
        handles = [
            self.db.open_for_write(txn, schema.column_object(column, partition))
            for column in names
        ]
        if rewritten:
            columns = [
                _prepend(decode_values_np(
                    self.db.buffer.get_page(handle, first_page)), values)
                for handle, values in zip(handles, columns)
            ]
        total = len(columns[0])
        per_page = schema.rows_per_page
        for start in range(0, total, per_page):
            page_no = first_page + start // per_page
            count = min(per_page, total - start)
            fresh = count - rewritten if start == 0 else count
            for column, kind, values, handle in zip(names, kinds, columns,
                                                    handles):
                page = values[start:start + per_page]
                cpu.charge(_ENCODE_OPS * count)
                self.db.buffer.write_page(handle, page_no,
                                          encode_values(kind, page))
                zonemaps.set_page(column, partition, page_no,
                                  *self._page_bounds(page), count)
                if column in indexed:
                    cpu.charge(_INDEX_OPS * fresh)
        named = dict(zip(names, columns))
        return {column: named[column][rewritten:] for column in indexed}

    def _write_metadata(
        self,
        txn,
        state: TableState,
        zonemaps: ZoneMaps,
        indexes: "Dict[str, HgIndex]",
        deleted: "Optional[RowIdSet]" = None,
    ) -> None:
        """Persist the zone maps, the HG indexes, the tombstones (a load
        starts an empty set; an append keeps the stored one) and the
        table state, in that order."""
        schema = state.schema
        page_size = self.db.page_config.page_size

        def put(object_name: str, payload: bytes) -> None:
            handle = self.db.open_for_write(txn, object_name)
            write_blob(self.db.buffer, handle, payload, page_size)

        put(schema.zonemap_object(), zonemaps.to_bytes())
        for column, index in indexes.items():
            put(schema.hg_object(column), index.to_bytes())
        if deleted is not None:
            put(schema.deleted_object(), deleted.to_bytes())
        put(schema.meta_object(), state.to_json())

    def load(
        self,
        table: str,
        rows: "Iterable[Tuple[object, ...]]",
        txn=None,
    ) -> TableState:
        """Bulk load ``rows`` (tuples in schema column order).

        Runs inside ``txn`` (a fresh transaction is created and committed
        when omitted).  Returns the resulting :class:`TableState`.
        """
        schema = self.schema(table)
        materialized = list(rows)
        with self._transaction(txn) as txn:
            schema = self._fit_rows_per_page(
                schema, materialized, self.db.page_config.page_size)
            self._stage_input(materialized)
            bounds, partition_of = self._route_rows(schema, materialized)

            zonemaps = ZoneMaps()
            # Each HG index is built once, from every partition's values.
            hg_parts: "Dict[str, List[Sequence[object]]]" = {
                column: [] for column in schema.indexed_columns()
            }
            row_id_parts: "List[np.ndarray]" = []
            partition_rows: List[int] = []
            for partition, part_rows in enumerate(self._split(
                    materialized, partition_of, schema.partition_count)):
                partition_rows.append(len(part_rows))
                row_id_parts.append(
                    make_row_id(partition, 0) + np.arange(len(part_rows)))
                for column, values in self._write_partition(
                    txn, schema, partition, self._columns(schema, part_rows),
                    zonemaps,
                ).items():
                    hg_parts[column].append(values)
            row_ids = np.concatenate(row_id_parts)
            indexes = {
                column: HgIndex.build(_concat(parts), row_ids)
                for column, parts in hg_parts.items()
            }
            state = TableState(
                schema=schema,
                partition_rows=partition_rows,
                partition_bounds=bounds,
            )
            self._write_metadata(txn, state, zonemaps, indexes, RowIdSet())
        return state

    # ------------------------------------------------------------------ #
    # deletes (tombstones)
    # ------------------------------------------------------------------ #

    def delete_rows(self, table: str, row_ids: "Iterable[int]",
                    txn=None) -> int:
        """Tombstone rows by global id; returns how many were newly deleted.

        Pages stay immutable (never-write-twice); scans mask the deleted
        rows.  Find row ids through scans (``with_rowids=True``) or through
        any secondary index.
        """
        schema = self.schema(table)
        with self._transaction(txn) as txn:
            handle = self.db.open_for_read(txn, schema.deleted_object())
            deleted = RowIdSet.from_bytes(read_blob(self.db.buffer, handle))
            added = deleted.add_many(row_ids)
            if added:
                out_handle = self.db.open_for_write(txn,
                                                    schema.deleted_object())
                write_blob(self.db.buffer, out_handle, deleted.to_bytes(),
                           self.db.page_config.page_size)
        return added

    # ------------------------------------------------------------------ #
    # incremental appends (trickle loads / TPC-H refresh functions)
    # ------------------------------------------------------------------ #

    def append(
        self,
        table: str,
        rows: "Iterable[Tuple[object, ...]]",
        txn=None,
    ) -> TableState:
        """Append rows to an already-loaded table.

        Rows are routed with the table's existing partition bounds, each
        partition's last (partial) page is rewritten and new pages are
        added; zone maps and every secondary index are extended in place.
        Partition-encoded row ids keep existing index entries stable.
        """
        new_rows = list(rows)
        with self._transaction(txn) as txn:

            def load_blob(object_name: str) -> bytes:
                handle = self.db.open_for_read(txn, object_name)
                return read_blob(self.db.buffer, handle)

            state = TableState.from_json(load_blob(f"{table}/__meta"))
            schema = state.schema  # carries the effective rows_per_page
            self._stage_input(new_rows)
            zonemaps = ZoneMaps.from_bytes(load_blob(schema.zonemap_object()))
            indexes = {
                column: HgIndex.from_bytes(load_blob(schema.hg_object(column)))
                for column in schema.indexed_columns()
            }

            # Route with the frozen bounds from the original load.
            partition_of = None
            if schema.partition_count > 1:
                self.db.cpu.charge(_ROUTE_OPS * len(new_rows))
                partition_of = self._partitions_of(
                    self._keys(schema, new_rows), state.partition_bounds)

            per_page = schema.rows_per_page
            fresh: "Dict[str, List[Sequence[object]]]" = {
                column: [] for column in indexes
            }
            row_id_parts: "List[np.ndarray]" = []
            for partition, part_rows in enumerate(self._split(
                    new_rows, partition_of, schema.partition_count)):
                if not part_rows:
                    continue
                existing = state.partition_rows[partition]
                for column, values in self._write_partition(
                    txn, schema, partition, self._columns(schema, part_rows),
                    zonemaps, existing // per_page, existing % per_page,
                ).items():
                    fresh[column].append(values)
                row_id_parts.append(
                    make_row_id(partition, existing) + np.arange(len(part_rows)))
                state.partition_rows[partition] = existing + len(part_rows)
            if row_id_parts:
                row_ids = np.concatenate(row_id_parts)
                for column, index in indexes.items():
                    index.extend(_concat(fresh[column]), row_ids)
            self._write_metadata(txn, state, zonemaps, indexes)
        return state

def _vector(kind: str, values: "Sequence[object]") -> "Sequence[object]":
    """One column's values in the form the load encodes from.

    An int or date column whose values all fit a signed 64-bit int becomes
    an ``int64`` vector (a bool counts as the int its page stores).  Every
    other column stays a python sequence, so float zone maps keep python's
    ``min``/``max`` (numpy orders ``-0.0`` and NaN differently) and an int
    column holding anything else reaches the encoder as given.
    """
    if kind in ("int", "date"):
        try:
            return np.frombuffer(array("q", values), dtype=np.int64)
        except (TypeError, OverflowError):
            pass
    return values


def _prepend(tail: "np.ndarray",
             values: "Sequence[object]") -> "Sequence[object]":
    """A decoded tail page ahead of new values, in :func:`_vector`'s form."""
    if isinstance(values, np.ndarray):
        return np.concatenate((tail, values))
    return to_list(tail) + list(values)


def _concat(parts: "List[Sequence[object]]") -> "np.ndarray":
    """One column from its partitions' vectors: an object vector if any
    partition's values stayed python values."""
    if all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts)
    column = np.empty(sum(map(len, parts)), dtype=object)
    column[:] = [value for part in parts for value in to_list(part)]
    return column
