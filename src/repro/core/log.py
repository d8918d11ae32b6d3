"""Transaction log and checkpoints.

SAP IQ's transaction log stores *metadata only* — data pages are flushed to
permanent storage before commit, so the log records commit/rollback events,
key-range allocations and the identities of the RF/RB bitmaps.  The log
lives in the system dbspace on strongly consistent storage.

Checkpoints snapshot the recovery-relevant state (catalog, freelists,
key-generator state); recovery loads the last checkpoint and replays the
records that follow it (see :mod:`repro.core.recovery`).

Log records embed their payloads (including the RF/RB bitmap bytes) rather
than pointing at separately flushed bitmap pages; at simulation scale the
two are equivalent for recovery behaviour, and the embedded form keeps the
replay logic auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.blockstore.device import BlockDevice
from repro.blockstore.freelist import Freelist

# Record kinds.
ALLOC_RANGE = "alloc_range"
TXN_COMMIT = "txn_commit"
TXN_ROLLBACK = "txn_rollback"
CHECKPOINT = "checkpoint"
SNAPSHOT_CREATED = "snapshot_created"
DROP_VERSION = "drop_version"
GC_COLLECT = "gc_collect"
OBJECT_CREATED = "object_created"

_RECORD_SIZE_ESTIMATE = 512  # bytes charged per record to the log device


def _charged_length(state: "Dict[str, Any]") -> int:
    """``len(json.dumps(state))`` with each bytes value as base64 text.

    A :class:`Freelist` counts as the bytes of its ``to_bytes()`` image,
    whose length follows from its size alone.  Base64 text never needs
    JSON escaping, so each such value is dumped as ``""`` and adds its
    encoded length: only the remainder is dumped.
    """
    encoded = 0

    def as_empty_text(value: object) -> str:
        nonlocal encoded
        if isinstance(value, bytes):
            length = len(value)
        elif isinstance(value, Freelist):
            length = value.image_length()
        else:
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        encoded += 4 * ((length + 2) // 3)
        return ""

    return len(json.dumps(state, default=as_empty_text)) + encoded


@dataclass(frozen=True)
class LogRecord:
    """One transaction log entry."""

    lsn: int
    kind: str
    payload: "Dict[str, Any]" = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"lsn": self.lsn, "kind": self.kind, "payload": self.payload},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        data = json.loads(line)
        return cls(lsn=data["lsn"], kind=data["kind"], payload=data["payload"])


class TransactionLog:
    """Append-only metadata log with checkpoint support.

    If a ``device`` is provided, each append charges a small synchronous
    write to it (the log lives on the system dbspace volume); otherwise
    appends are free in virtual time.
    """

    def __init__(self, device: "Optional[BlockDevice]" = None) -> None:
        self._records: List[LogRecord] = []
        self._device = device
        self._next_lsn = 1
        self._last_checkpoint_lsn = 0
        self._checkpoint_state: "Optional[Dict[str, Any]]" = None

    def _charge_write(self, nbytes: int) -> None:
        if self._device is not None:
            # The log is a rotating region of the system dbspace; only the
            # write's cost matters here, the contents live in the records.
            self._device.charge_write(nbytes)

    def append(self, kind: str, payload: "Optional[Dict[str, Any]]" = None) -> LogRecord:
        record = LogRecord(self._next_lsn, kind, dict(payload or {}))
        self._next_lsn += 1
        self._records.append(record)
        self._charge_write(_RECORD_SIZE_ESTIMATE + len(record.to_json()))
        return record

    def checkpoint(self, state: "Dict[str, Any]") -> LogRecord:
        """Record a checkpoint, replacing the previous one.

        ``state`` is JSON-serializable except for ``bytes`` and
        :class:`Freelist` values, which are kept as they are and charged at
        the base64 length of their bytes.
        """
        record = self.append(CHECKPOINT, {"note": "checkpoint"})
        self._last_checkpoint_lsn = record.lsn
        self._checkpoint_state = state
        self._charge_write(_charged_length(state))
        return record

    def last_checkpoint_state(self) -> "Optional[Dict[str, Any]]":
        return self._checkpoint_state

    def records_since_checkpoint(self) -> "Iterator[LogRecord]":
        """Records with LSN greater than the last checkpoint's."""
        for record in self._records:
            if record.lsn > self._last_checkpoint_lsn:
                yield record

    def records(self) -> "Iterator[LogRecord]":
        return iter(self._records)
