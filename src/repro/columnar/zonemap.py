"""Zone maps: per-page min/max used to early-prune pages during scans.

SAP IQ uses zone maps to skip pages that cannot satisfy a predicate.  We
keep one zone map entry per (column, partition, page) and persist the whole
table's zone maps as one blob object written at the end of a load.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple


class ZoneMaps:
    """Min/max (plus row count) per page for every column/partition."""

    def __init__(self) -> None:
        # (column, partition) -> list over pages of (min, max, rows)
        self._zones: Dict[Tuple[str, int], List[Tuple[object, object, int]]] = {}

    def set_page(self, column: str, partition: int, page_no: int,
                 lo: object, hi: object, rows: int) -> None:
        """Set the entry of a stored page (an append's rewritten tail) or
        add the entry of the next one."""
        zones = self._zones.setdefault((column, partition), [])
        if page_no == len(zones):
            zones.append((lo, hi, rows))
        else:
            zones[page_no] = (lo, hi, rows)

    def pages(self, column: str, partition: int) -> "List[Tuple[object, object, int]]":
        return list(self._zones.get((column, partition), ()))

    def prune(
        self,
        column: str,
        partition: int,
        lo: "Optional[object]",
        hi: "Optional[object]",
    ) -> "List[int]":
        """Page numbers that may contain values in ``[lo, hi]``.

        ``None`` bounds are open.  A column with no zone map entries prunes
        nothing (returns an empty list — callers treat that as "unknown").
        """
        survivors: List[int] = []
        for page_no, (page_lo, page_hi, __) in enumerate(
            self._zones.get((column, partition), ())
        ):
            if lo is not None and page_hi < lo:  # type: ignore[operator]
                continue
            if hi is not None and page_lo > hi:  # type: ignore[operator]
                continue
            survivors.append(page_no)
        return survivors

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        payload = {
            f"{column}#{partition}": zones
            for (column, partition), zones in self._zones.items()
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ZoneMaps":
        data = json.loads(payload.decode("utf-8"))
        maps = cls()
        for key, zones in data.items():
            column, __, partition = key.rpartition("#")
            maps._zones[(column, int(partition))] = [
                (lo, hi, int(rows)) for lo, hi, rows in zones
            ]
        return maps
