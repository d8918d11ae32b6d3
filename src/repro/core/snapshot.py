"""Snapshots and retention-deferred deletion (Section 5).

On the cloud, storing data is cheap, so instead of deleting superseded
pages the transaction manager *transfers their ownership* to the snapshot
manager, which deletes them in the background once a user-defined retention
period expires.  Because every page that any snapshot within the retention
window could reference is thereby retained, taking a snapshot reduces to
backing up metadata:

- the snapshot manager's own FIFO metadata, and
- the system catalog.

Only a cloud user dbspace takes snapshots: a block dbspace frees a
superseded block at once, so nothing would retain it.

Point-in-time restore re-installs the snapshot's catalog; the keys consumed
*after* the snapshot form a contiguous range (key monotonicity) that the
restore garbage-collects by polling.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Container, Deque, Dict, List, Optional, Tuple

from repro.sim.clock import VirtualClock
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.storage.dbspace import PageStore
from repro.storage.identity import USER_DBSPACE

CP_RETAIN_MID = register_crash_point(
    "snapshot.retain.mid",
    "GC transferred some, but not all, superseded pages into the FIFO",
)
CP_REAP_BEFORE_FREE = register_crash_point(
    "snapshot.reap.before_free",
    "expired FIFO entries selected, deletes not yet issued",
)
CP_REAP_AFTER_FREE = register_crash_point(
    "snapshot.reap.after_free",
    "expired pages deleted from the bucket, FIFO entries not yet popped "
    "(re-delete on the next reap is idempotent)",
)
CP_CREATE_BEFORE_REGISTER = register_crash_point(
    "snapshot.create.before_register",
    "snapshot metadata captured but the snapshot never registered",
)


class SnapshotError(Exception):
    """Unknown snapshots, expired restores."""


@dataclass(frozen=True)
class Snapshot:
    """Metadata captured by one near-instantaneous snapshot."""

    snapshot_id: int
    created_at: float
    expires_at: float
    catalog_bytes: bytes
    max_allocated_key: int
    snapmgr_metadata: bytes
    # Largest key actually *consumed* when the snapshot was taken; the
    # restore-time GC polls keys above this floor (keys below were either
    # committed — hence reachable from the restored catalog — retained, or
    # belong to transactions covered by active-set GC).
    max_consumed_key: int = 0


class SnapshotManager:
    """FIFO of retained pages + the registry of snapshots.

    ``dbspace`` is the view the reaper deletes expired pages through.
    """

    def __init__(
        self,
        clock: VirtualClock,
        retention_seconds: float,
        dbspace: PageStore,
    ) -> None:
        if retention_seconds < 0:
            raise SnapshotError("retention must be non-negative")
        self.clock = clock
        self.retention_seconds = retention_seconds
        self._dbspace = dbspace
        # FIFO of (locator, expiry): pages enter in expiry order because
        # the expiry is always now + retention.
        self._fifo: Deque[Tuple[int, float]] = deque()
        self._snapshots: Dict[int, Snapshot] = {}
        self._next_snapshot_id = 1
        self.stats = {"retained": 0, "reaped": 0, "snapshots": 0}

    # ------------------------------------------------------------------ #
    # retention
    # ------------------------------------------------------------------ #

    def retain(self, locators: "List[int]") -> None:
        """Take ownership of superseded pages; delete after retention."""
        expiry = self.clock.now() + self.retention_seconds
        for locator in locators:
            crash_point(CP_RETAIN_MID)
            self._fifo.append((locator, expiry))
        self.stats["retained"] += len(locators)

    def retained_count(self) -> int:
        return len(self._fifo)

    def retained_locators(self) -> "List[int]":
        """Currently retained locators (the auditor's retained set)."""
        return [locator for locator, __ in self._fifo]

    def reap(self) -> int:
        """Background deletion of pages whose retention expired.

        The FIFO is durable metadata, so the deletes are issued *before*
        the entries are popped: a crash in between leaves already-deleted
        entries in the FIFO and the next reap re-deletes them, which is
        idempotent on an object store.  Popping first would leak the pages
        forever if the node died before the deletes went out.
        """
        now = self.clock.now()
        locators: List[int] = []
        for locator, expiry in self._fifo:
            if expiry > now:
                break
            locators.append(locator)
        if locators:
            crash_point(CP_REAP_BEFORE_FREE)
            self._dbspace.free_pages(locators)
            crash_point(CP_REAP_AFTER_FREE)
        for __ in locators:
            self._fifo.popleft()
        reaped = len(locators)
        self.stats["reaped"] += reaped
        self._expire_snapshots(now)
        return reaped

    def _expire_snapshots(self, now: float) -> None:
        expired = [
            snapshot_id
            for snapshot_id, snapshot in self._snapshots.items()
            if snapshot.expires_at <= now
        ]
        for snapshot_id in expired:
            del self._snapshots[snapshot_id]

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    def create_snapshot(
        self,
        catalog_bytes: bytes,
        max_allocated_key: int,
        max_consumed_key: "Optional[int]" = None,
    ) -> Snapshot:
        """Record a snapshot: metadata only, hence near-instantaneous."""
        now = self.clock.now()
        snapshot = Snapshot(
            snapshot_id=self._next_snapshot_id,
            created_at=now,
            expires_at=now + self.retention_seconds,
            catalog_bytes=bytes(catalog_bytes),
            max_allocated_key=max_allocated_key,
            snapmgr_metadata=self.metadata_bytes(),
            max_consumed_key=(
                max_consumed_key if max_consumed_key is not None
                else max_allocated_key
            ),
        )
        crash_point(CP_CREATE_BEFORE_REGISTER)
        self._next_snapshot_id += 1
        self._snapshots[snapshot.snapshot_id] = snapshot
        self.stats["snapshots"] += 1
        return snapshot

    def get_snapshot(self, snapshot_id: int) -> Snapshot:
        snapshot = self._snapshots.get(snapshot_id)
        if snapshot is None:
            raise SnapshotError(
                f"snapshot {snapshot_id} does not exist or has expired"
            )
        return snapshot

    def snapshots(self) -> "List[Snapshot]":
        return sorted(self._snapshots.values(), key=lambda s: s.snapshot_id)

    @staticmethod
    def decode_metadata(payload: bytes) -> "List[Tuple[int, float]]":
        """The (locator, expiry) entries of a :meth:`metadata_bytes`
        payload; :meth:`rewind` installs them."""
        data = json.loads(payload.decode("utf-8"))
        return [
            (int(locator), float(expiry))
            for __, locator, expiry in data["fifo"]
        ]

    def rewind(self, fifo: "List[Tuple[int, float]]",
               live: "Container[int]", taken_at: float) -> None:
        """Install a restore point's ``fifo``, minus the pages the restored
        catalog revived (``live``), and drop the snapshots taken after it:
        the restore deleted the pages only they referenced."""
        self._fifo = deque(entry for entry in fifo if entry[0] not in live)
        for snapshot in self.snapshots():
            if snapshot.created_at > taken_at:
                del self._snapshots[snapshot.snapshot_id]

    def metadata_bytes(self) -> bytes:
        """Serialize the FIFO (stored on the object store, like user data).

        The persisted form names each entry's dbspace.
        """
        return json.dumps(
            {"fifo": [[USER_DBSPACE, locator, expiry]
                      for locator, expiry in self._fifo]}
        ).encode("utf-8")
