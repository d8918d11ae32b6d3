"""The High-Group (HG) index: sorted values mapped to row-id range bitmaps.

SAP IQ's HG index combines B+-tree navigation with the compression of
bitmaps.  We keep the same shape: a sorted array of distinct values (the
tree's leaf level) each pointing at a range-compressed set of global row
ids.  Point and range lookups return row-id lists the scan layer converts
into page sets.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Optional, Tuple

import numpy as np


class HgIndex:
    """value -> range-compressed row ids, with sorted-value navigation."""

    def __init__(self) -> None:
        self._ranges: Dict[object, List[Tuple[int, int]]] = {}
        self._sorted_values: "Optional[List[object]]" = None

    @classmethod
    def build(cls, values: "np.ndarray", row_ids: "np.ndarray") -> "HgIndex":
        """The index of ``values[i]`` at ``row_ids[i]``, for ascending
        ``row_ids``.

        A stable argsort groups equal values with their row ids still
        ascending (an ``object`` vector sorts by python comparisons); a
        range breaks where the value changes or the row ids stop being
        consecutive, which is exactly where adding the rows one at a time
        would open a new one.  Each value keeps its first occurrence as
        its key.
        """
        index = cls()
        if not len(values):
            return index
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        rows = row_ids[order]
        new_value = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        breaks = new_value.copy()
        breaks[1:] |= rows[1:] != rows[:-1] + 1
        starts = np.flatnonzero(breaks)
        ends = np.append(starts[1:], len(rows)) - 1
        pairs = list(zip(rows[starts].tolist(), rows[ends].tolist()))
        # The ranges of one value are adjacent: slice them out per value.
        firsts = np.flatnonzero(new_value[starts])
        cuts = firsts.tolist() + [len(pairs)]
        index._ranges = dict(zip(
            ordered[starts[firsts]].tolist(),
            map(pairs.__getitem__, map(slice, cuts[:-1], cuts[1:])),
        ))
        return index

    def extend(self, values: "np.ndarray", row_ids: "np.ndarray") -> None:
        """Index ``values[i]`` at ``row_ids[i]``, ids ascending past every
        id already indexed (an append's rows).

        :meth:`build` indexes the new rows; a value's first new range then
        joins its last stored range when the row ids run on, as adding the
        rows one at a time would.
        """
        for value, ranges in HgIndex.build(values, row_ids)._ranges.items():
            stored = self._ranges.setdefault(value, [])
            if stored and stored[-1][1] + 1 == ranges[0][0]:
                stored[-1] = (stored[-1][0], ranges[0][1])
                ranges = ranges[1:]
            stored.extend(ranges)
        self._sorted_values = None

    def _values(self) -> "List[object]":
        if self._sorted_values is None:
            self._sorted_values = sorted(self._ranges)
        return self._sorted_values

    @property
    def distinct_count(self) -> int:
        return len(self._ranges)

    def lookup(self, value: object) -> "List[int]":
        """Row ids with exactly ``value``."""
        out: List[int] = []
        for lo, hi in self._ranges.get(value, ()):
            out.extend(range(lo, hi + 1))
        return out

    def lookup_range(self, lo: "Optional[object]",
                     hi: "Optional[object]") -> "List[int]":
        """Row ids whose value falls in ``[lo, hi]`` (None = open)."""
        values = self._values()
        start = 0 if lo is None else bisect.bisect_left(values, lo)
        end = len(values) if hi is None else bisect.bisect_right(values, hi)
        out: List[int] = []
        for value in values[start:end]:
            for range_lo, range_hi in self._ranges[value]:
                out.extend(range(range_lo, range_hi + 1))
        out.sort()
        return out

    def row_ranges(self, value: object) -> "List[Tuple[int, int]]":
        return list(self._ranges.get(value, ()))

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        entries = [
            [value, ranges] for value, ranges in sorted(self._ranges.items())
        ]
        return json.dumps(entries).encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "HgIndex":
        index = cls()
        for value, ranges in json.loads(payload.decode("utf-8")):
            index._ranges[value] = [(int(lo), int(hi)) for lo, hi in ranges]
        return index
