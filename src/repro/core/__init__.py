"""Core engine: key generation, buffering, transactions, OCM, snapshots.

This package implements the paper's contribution proper — the protocol
layer that lets a blockmap-based MVCC engine run on eventually consistent
object stores:

- :mod:`repro.core.keygen` — the Object Key Generator (Section 3.2),
- :mod:`repro.core.bitmaps` — RF/RB bitmaps over locators (Section 3.3),
- :mod:`repro.core.buffer` — the buffer manager with never-write-twice
  flushing (Section 3.1),
- :mod:`repro.core.txn` — MVCC transaction manager, commit chain and
  garbage collection (Section 3.3),
- :mod:`repro.core.ocm` — the Object Cache Manager (Section 4),
- :mod:`repro.core.snapshot` — retention snapshots and point-in-time
  restore (Section 5),
- :mod:`repro.core.log` / :mod:`repro.core.recovery` — transaction log,
  checkpoints and crash recovery,
- :mod:`repro.core.multiplex` — coordinator/writer/reader clusters.
"""

from repro.core.bitmaps import LocatorBitmap
from repro.core.keygen import KeyRange, NodeKeyCache, ObjectKeyGenerator
from repro.core.log import LogRecord, TransactionLog
from repro.core.buffer import BufferManager
from repro.core.txn import Transaction, TransactionManager, TransactionError
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.core.snapshot import SnapshotManager, Snapshot

__all__ = [
    "LocatorBitmap",
    "KeyRange",
    "NodeKeyCache",
    "ObjectKeyGenerator",
    "LogRecord",
    "TransactionLog",
    "BufferManager",
    "Transaction",
    "TransactionManager",
    "TransactionError",
    "ObjectCacheManager",
    "OcmConfig",
    "SnapshotManager",
    "Snapshot",
]
