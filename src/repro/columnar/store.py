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
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.blob import write_blob
from repro.columnar.deletes import RowIdSet
from repro.columnar.encoding import decode_values, encode_values
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
        column = schema.partition_column
        index = schema.column_names().index(column)  # type: ignore[arg-type]
        keys = _vector(schema.column(column).kind,  # type: ignore[arg-type]
                       tuple(map(itemgetter(index), rows)))
        ordered = sorted(to_list(keys))
        bounds = [ordered[(i * len(ordered)) // count] for i in range(1, count)]
        self.db.cpu.charge(_ROUTE_OPS * len(rows))
        return bounds, self._partitions_of(keys, bounds)

    @staticmethod
    def _columns(kinds: "Sequence[str]",
                 rows: "Sequence[Tuple[object, ...]]") -> "List[Sequence[object]]":
        """Transpose ``rows`` into one vector per column (see :func:`_vector`)."""
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

    def _write_partition(
        self,
        txn,
        schema: TableSchema,
        partition: int,
        rows: "Sequence[Tuple[object, ...]]",
        zonemaps: ZoneMaps,
    ) -> "Dict[str, Sequence[object]]":
        """Encode and write one partition's pages a column vector at a time.

        Adds the zone maps and charges the CPU per page in the order the
        page writes interleave with it.  Returns the HG-indexed columns'
        vectors.
        """
        cpu = self.db.cpu
        names = schema.column_names()
        kinds = [schema.column(column).kind for column in names]
        indexed = schema.indexed_columns()
        columns = self._columns(kinds, rows)
        handles = [
            self.db.open_for_write(txn, schema.column_object(column, partition))
            for column in names
        ]
        per_page = schema.rows_per_page
        for start in range(0, len(rows), per_page):
            page_no = start // per_page
            count = min(per_page, len(rows) - start)
            for column, kind, values, handle in zip(names, kinds, columns,
                                                    handles):
                page = values[start:start + per_page]
                cpu.charge(_ENCODE_OPS * count)
                self.db.buffer.write_page(handle, page_no,
                                          encode_values(kind, page))
                zonemaps.add_page(column, partition,
                                  *self._page_bounds(page), count)
                if column in indexed:
                    cpu.charge(_INDEX_OPS * count)
        named = dict(zip(names, columns))
        return {column: named[column] for column in indexed}

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
        own_txn = txn is None
        if own_txn:
            txn = self.db.begin()
        clock = self.db.clock
        page_size = self.db.page_config.page_size
        schema = self._fit_rows_per_page(schema, materialized, page_size)

        # Input arrives from an S3 staging bucket through the same NIC the
        # dbspace uses; reserve the bandwidth so loads are network-visible.
        input_bytes = self._input_bytes(materialized)
        if input_bytes:
            self.metrics.series("input_bytes").record(clock.now(), input_bytes)
            __, input_done = self.db.nic.request(clock.now(), float(input_bytes))
            # Input streaming overlaps with processing: the clock does not
            # wait for it here, but the NIC reservation delays dbspace I/O.

        bounds, partition_of = self._route_rows(schema, materialized)

        zonemaps = ZoneMaps()
        # Each HG index is built once, from every partition's values.
        hg_parts: "Dict[str, List[Sequence[object]]]" = {
            column: [] for column in schema.indexed_columns()
        }
        row_id_parts: "List[np.ndarray]" = []
        partition_rows: List[int] = []
        for partition in range(schema.partition_count):
            part_rows = materialized if partition_of is None else list(map(
                materialized.__getitem__,
                np.flatnonzero(partition_of == partition).tolist(),
            ))
            partition_rows.append(len(part_rows))
            row_id_parts.append(
                make_row_id(partition, 0) + np.arange(len(part_rows)))
            for column, values in self._write_partition(
                txn, schema, partition, part_rows, zonemaps
            ).items():
                hg_parts[column].append(values)
        row_ids = np.concatenate(row_id_parts)
        indexes = {
            column: HgIndex.build(_concat(parts), row_ids)
            for column, parts in hg_parts.items()
        }

        # Persist metadata blobs: zone maps, HG indexes, table state.
        zm_handle = self.db.open_for_write(txn, schema.zonemap_object())
        write_blob(self.db.buffer, zm_handle, zonemaps.to_bytes(), page_size)
        for column, index in indexes.items():
            hg_handle = self.db.open_for_write(txn, schema.hg_object(column))
            write_blob(self.db.buffer, hg_handle, index.to_bytes(), page_size)
        deleted_handle = self.db.open_for_write(txn, schema.deleted_object())
        write_blob(self.db.buffer, deleted_handle, RowIdSet().to_bytes(),
                   page_size)
        state = TableState(
            schema=schema,
            partition_rows=partition_rows,
            partition_bounds=bounds,
        )
        meta_handle = self.db.open_for_write(txn, schema.meta_object())
        write_blob(self.db.buffer, meta_handle, state.to_json(), page_size)

        if own_txn:
            self.db.commit(txn)
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
        from repro.columnar.blob import read_blob

        schema = self.schema(table)
        own_txn = txn is None
        if own_txn:
            txn = self.db.begin()
        handle = self.db.open_for_read(txn, schema.deleted_object())
        deleted = RowIdSet.from_bytes(read_blob(self.db.buffer, handle))
        added = deleted.add_many(row_ids)
        if added:
            page_size = self.db.page_config.page_size
            out_handle = self.db.open_for_write(txn, schema.deleted_object())
            write_blob(self.db.buffer, out_handle, deleted.to_bytes(),
                       page_size)
        if own_txn:
            self.db.commit(txn)
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
        from repro.columnar.blob import read_blob

        new_rows = list(rows)
        own_txn = txn is None
        if own_txn:
            txn = self.db.begin()
        cpu = self.db.cpu
        page_size = self.db.page_config.page_size

        def load_blob(object_name: str):
            handle = self.db.open_for_read(txn, object_name)
            return read_blob(self.db.buffer, handle)

        state = TableState.from_json(load_blob(f"{table}/__meta"))
        schema = state.schema  # carries the effective rows_per_page
        per_page = schema.rows_per_page
        column_names = schema.column_names()
        if new_rows:
            input_bytes = self._input_bytes(new_rows)
            self.metrics.series("input_bytes").record(
                self.db.clock.now(), input_bytes
            )
            self.db.nic.request(self.db.clock.now(), float(input_bytes))

        zonemaps = ZoneMaps.from_bytes(load_blob(schema.zonemap_object()))
        indexes = {
            column: HgIndex.from_bytes(load_blob(schema.hg_object(column)))
            for column in schema.indexed_columns()
        }

        # Route with the frozen bounds from the original load.
        per_partition: "Dict[int, List[Tuple[object, ...]]]" = {}
        if schema.partition_count == 1:
            per_partition[0] = new_rows
        else:
            key_index = column_names.index(schema.partition_column)  # type: ignore[arg-type]
            cpu.charge(_ROUTE_OPS * len(new_rows))
            partition_ids = self._partitions_of(
                [row[key_index] for row in new_rows], state.partition_bounds
            ).tolist()
            for row, partition in zip(new_rows, partition_ids):
                per_partition.setdefault(partition, []).append(row)

        for partition, part_rows in sorted(per_partition.items()):
            if not part_rows:
                continue
            existing = state.partition_rows[partition]
            handles = {
                column: self.db.open_for_write(
                    txn, schema.column_object(column, partition)
                )
                for column in column_names
            }
            # Merge into the last partial page, then write whole new pages.
            tail_rows: "List[Tuple[object, ...]]" = []
            tail_page = existing // per_page
            tail_offset = existing % per_page
            if tail_offset:
                decoded = {
                    column: decode_values(
                        self.db.buffer.get_page(handles[column], tail_page)
                    )
                    for column in column_names
                }
                tail_rows = list(
                    zip(*(decoded[column] for column in column_names))
                )
            combined = tail_rows + part_rows
            for index_offset in range(0, len(combined), per_page):
                chunk = combined[index_offset:index_offset + per_page]
                page_no = tail_page + index_offset // per_page
                base_row = make_row_id(partition, page_no * per_page)
                for col_index, column in enumerate(column_names):
                    values = [row[col_index] for row in chunk]
                    cpu.charge(_ENCODE_OPS * len(values))
                    payload = encode_values(schema.column(column).kind, values)
                    if len(payload) > page_size:
                        raise SchemaError(
                            f"appended page for {column!r} exceeds the page "
                            "size; append smaller batches"
                        )
                    self.db.buffer.write_page(handles[column], page_no, payload)
                    zonemaps.replace_page(
                        column, partition, page_no,
                        min(values), max(values), len(values),
                    )
                    # Indexes: only the genuinely new rows get entries (the
                    # rewritten tail rows already have them).
                    fresh_start = tail_offset if index_offset == 0 else 0
                    fresh_values = values[fresh_start:]
                    fresh_base = base_row + fresh_start
                    if column in indexes and fresh_values:
                        cpu.charge(_INDEX_OPS * len(fresh_values))
                        indexes[column].add_rows(fresh_values, fresh_base)
            state.partition_rows[partition] = existing + len(part_rows)

        # Rewrite metadata blobs.
        buffer = self.db.buffer
        zm_handle = self.db.open_for_write(txn, schema.zonemap_object())
        write_blob(buffer, zm_handle, zonemaps.to_bytes(), page_size)
        for column, index in indexes.items():
            handle = self.db.open_for_write(txn, schema.hg_object(column))
            write_blob(buffer, handle, index.to_bytes(), page_size)
        meta_handle = self.db.open_for_write(txn, schema.meta_object())
        write_blob(buffer, meta_handle, state.to_json(), page_size)

        if own_txn:
            self.db.commit(txn)
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


def _concat(parts: "List[Sequence[object]]") -> "np.ndarray":
    """One column from its partitions' vectors: an object vector if any
    partition's values stayed python values."""
    if all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts)
    column = np.empty(sum(map(len, parts)), dtype=object)
    column[:] = [value for part in parts for value in to_list(part)]
    return column
