"""Row deletion via tombstone sets.

SAP IQ deletes rows by marking them in per-table deletion bitmaps rather
than rewriting pages (pages are immutable objects on cloud dbspaces).  The
tombstone set stores range-compressed global row ids, persists as a blob
(`{table}/__deleted`), and scans mask deleted rows out.  Together with
:meth:`~repro.columnar.store.ColumnStore.append` this supports
TPC-H-refresh-style trickle workloads (RF1 inserts / RF2 deletes).
"""

from __future__ import annotations

import bisect
import json
from typing import Iterable, List, Tuple


class RowIdSet:
    """A range-compressed set of global row ids with fast membership."""

    def __init__(self, ranges: "List[Tuple[int, int]]" = ()) -> None:
        self._ranges: List[Tuple[int, int]] = sorted(ranges)
        self._starts: List[int] = [lo for lo, __ in self._ranges]

    def _rebuild(self) -> None:
        self._ranges.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._ranges:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._ranges = merged
        self._starts = [lo for lo, __ in self._ranges]

    def add_many(self, row_ids: "Iterable[int]") -> int:
        """Add row ids; returns how many were newly added.

        Ids are stored as python ints whatever the caller passes (a scan's
        ``__rowid`` column is a numpy vector), so the set always persists.
        """
        added = 0
        for row_id in sorted({int(row_id) for row_id in row_ids}):
            if row_id in self:
                continue
            self._ranges.append((row_id, row_id))
            added += 1
        if added:
            self._rebuild()
        return added

    def __contains__(self, row_id: int) -> bool:
        index = bisect.bisect_right(self._starts, row_id) - 1
        if index < 0:
            return False
        lo, hi = self._ranges[index]
        return lo <= row_id <= hi

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def to_bytes(self) -> bytes:
        return json.dumps(self._ranges).encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RowIdSet":
        return cls([(int(lo), int(hi))
                    for lo, hi in json.loads(payload.decode("utf-8"))])
