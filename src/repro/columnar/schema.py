"""Table and column schemas, with range partitioning metadata.

Storage-object naming convention (each maps to one catalog object):

- column data:      ``{table}/{column}#p{partition}``
- zone maps:        ``{table}/__zonemaps``
- HG index:         ``{table}/{column}__hg``
- table metadata:   ``{table}/__meta``
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

COLUMN_KINDS = ("int", "float", "str", "date")

# Global row ids encode the partition in the high bits so that appending
# rows to one partition never renumbers the others (index stability under
# incremental loads): row_id = (partition << PARTITION_SHIFT) | local_row.
PARTITION_SHIFT = 40


def make_row_id(partition: int, local_row: int) -> int:
    if local_row >= (1 << PARTITION_SHIFT):
        raise SchemaError("partition row count exceeds the row-id space")
    return (partition << PARTITION_SHIFT) | local_row


def split_row_id(row_id: int) -> "Tuple[int, int]":
    """(partition, local_row) of a global row id."""
    return row_id >> PARTITION_SHIFT, row_id & ((1 << PARTITION_SHIFT) - 1)


class SchemaError(Exception):
    """Invalid schema definitions."""


@dataclass(frozen=True)
class ColumnSchema:
    """One column: name, kind and an optional High-Group index."""

    name: str
    kind: str
    hg_index: bool = False

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(
                f"column {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {COLUMN_KINDS})"
            )


@dataclass(frozen=True)
class TableSchema:
    """A range-partitioned columnar table."""

    name: str
    columns: "Sequence[ColumnSchema]"
    partition_column: "Optional[str]" = None
    partition_count: int = 1
    rows_per_page: int = 2048

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        if self.partition_count < 1:
            raise SchemaError("partition count must be at least 1")
        if self.partition_count > 1 and self.partition_column is None:
            raise SchemaError(
                f"table {self.name!r}: multiple partitions need a "
                "partition column"
            )
        if self.partition_column is not None and self.partition_column not in names:
            raise SchemaError(
                f"table {self.name!r}: partition column "
                f"{self.partition_column!r} is not a column"
            )
        if self.rows_per_page < 1:
            raise SchemaError("rows_per_page must be positive")

    def column(self, name: str) -> ColumnSchema:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> "List[str]":
        return [c.name for c in self.columns]

    def indexed_columns(self) -> "List[str]":
        return [c.name for c in self.columns if c.hg_index]

    # ------------------------------------------------------------------ #
    # storage object names
    # ------------------------------------------------------------------ #

    def column_object(self, column: str, partition: int) -> str:
        self.column(column)
        if not 0 <= partition < self.partition_count:
            raise SchemaError(
                f"partition {partition} out of range for {self.name!r}"
            )
        return f"{self.name}/{column}#p{partition}"

    def zonemap_object(self) -> str:
        return f"{self.name}/__zonemaps"

    def hg_object(self, column: str) -> str:
        if column not in self.indexed_columns():
            raise SchemaError(
                f"column {column!r} of {self.name!r} has no HG index"
            )
        return f"{self.name}/{column}__hg"

    def deleted_object(self) -> str:
        return f"{self.name}/__deleted"

    def meta_object(self) -> str:
        return f"{self.name}/__meta"

    # ------------------------------------------------------------------ #
    # serialization (persisted in the __meta object)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> "Dict[str, object]":
        # The constant index keys keep stored ``__meta`` blobs byte-stable.
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "hg_index": c.hg_index,
                    "date_index": False,
                    "text_index": False,
                }
                for c in self.columns
            ],
            "partition_column": self.partition_column,
            "partition_count": self.partition_count,
            "rows_per_page": self.rows_per_page,
            "cmp_indexes": [],
        }

    @classmethod
    def from_dict(cls, payload: "Dict[str, object]") -> "TableSchema":
        return cls(
            name=str(payload["name"]),
            columns=tuple(
                ColumnSchema(c["name"], c["kind"], c["hg_index"])  # type: ignore[index]
                for c in payload["columns"]  # type: ignore[union-attr]
            ),
            partition_column=payload["partition_column"],  # type: ignore[arg-type]
            partition_count=int(payload["partition_count"]),  # type: ignore[arg-type]
            rows_per_page=int(payload["rows_per_page"]),  # type: ignore[arg-type]
        )


@dataclass
class TableState:
    """Load-time facts about a table: row counts and partition bounds."""

    schema: TableSchema
    partition_rows: "List[int]" = field(default_factory=list)
    partition_bounds: "List[object]" = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(self.partition_rows)

    def pages_in_partition(self, partition: int) -> int:
        rows = self.partition_rows[partition]
        per_page = self.schema.rows_per_page
        return (rows + per_page - 1) // per_page

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "schema": self.schema.to_dict(),
                "partition_rows": self.partition_rows,
                "partition_bounds": self.partition_bounds,
            }
        ).encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes) -> "TableState":
        data = json.loads(payload.decode("utf-8"))
        return cls(
            schema=TableSchema.from_dict(data["schema"]),
            partition_rows=list(data["partition_rows"]),
            partition_bounds=list(data["partition_bounds"]),
        )
