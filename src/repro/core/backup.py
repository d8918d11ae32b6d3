"""Conventional backups: full and incremental (Section 5).

The cloud version of SAP IQ keeps supporting conventional backups next to
snapshots.  A *full* backup copies the catalog plus every reachable page
to a backup bucket; an *incremental* backup copies only pages written
since its base — which, thanks to monotonic key allocation, is exactly
the reachable set of keys above the base's high-water mark.

Restore resolves the incremental chain back to its full base, re-installs
the catalog, and copies any missing objects back onto their dbspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.objectstore.base import ObjectStore
from repro.storage.identity import Catalog


class BackupError(Exception):
    """Unknown backups, broken chains, missing dbspaces."""


@dataclass(frozen=True)
class BackupRecord:
    """Metadata of one backup in the chain."""

    backup_id: int
    kind: str  # "full" or "incremental"
    created_at: float
    catalog_bytes: bytes
    # (dbspace, object name) for each object captured by THIS backup.
    objects: "Tuple[Tuple[str, str], ...]"
    # Key consumption high-water mark at capture time: incremental backups
    # copy reachable keys above it, restores GC orphans above it.
    max_allocated_key: int
    base_backup_id: "Optional[int]" = None


class BackupManager:
    """Runs backups of a Database into a backup object store."""

    def __init__(self, db, backup_store: ObjectStore) -> None:
        self.db = db
        self.backup_store = backup_store
        self._records: Dict[int, BackupRecord] = {}
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #

    def _reachable_objects(
        self, min_key_exclusive: int = 0
    ) -> "List[Tuple[str, str]]":
        """(dbspace, object name) of every reachable cloud page above
        ``min_key_exclusive`` (0 = everything)."""
        node = self.db.node
        return [
            (dbspace, node.dbspace(dbspace).object_name(key))
            for key, dbspace in self.db._reachable_cloud_keys().items()
            if key > min_key_exclusive
        ]

    def _copy_to_backup(self, backup_id: int,
                        objects: "List[Tuple[str, str]]") -> None:
        for dbspace_name, object_name in objects:
            store = self.db.node.dbspace(dbspace_name)
            payload = store.io.get(object_name)  # opaque: ciphertext stays sealed
            self.backup_store.put(
                f"{backup_id}/{dbspace_name}/{object_name}", payload
            )

    def _consumed_mark(self) -> int:
        """Current key consumption high-water mark (see BackupRecord)."""
        consumed = getattr(self.db.key_cache, "last_consumed", None)
        return consumed if consumed is not None else (
            self.db.keygen.max_allocated_key
        )

    def full_backup(self) -> BackupRecord:
        """Copy the catalog and every reachable page to the backup store."""
        objects = self._reachable_objects()
        backup_id = self._next_id
        self._next_id += 1
        self._copy_to_backup(backup_id, objects)
        record = BackupRecord(
            backup_id=backup_id,
            kind="full",
            created_at=self.db.clock.now(),
            catalog_bytes=self.db.catalog.to_bytes(),
            objects=tuple(objects),
            max_allocated_key=self._consumed_mark(),
        )
        self._records[backup_id] = record
        return record

    def incremental_backup(self, base: BackupRecord) -> BackupRecord:
        """Copy only pages written since ``base`` (keys above its mark)."""
        if base.backup_id not in self._records:
            raise BackupError(f"unknown base backup {base.backup_id}")
        objects = self._reachable_objects(
            min_key_exclusive=base.max_allocated_key
        )
        backup_id = self._next_id
        self._next_id += 1
        self._copy_to_backup(backup_id, objects)
        record = BackupRecord(
            backup_id=backup_id,
            kind="incremental",
            created_at=self.db.clock.now(),
            catalog_bytes=self.db.catalog.to_bytes(),
            objects=tuple(objects),
            max_allocated_key=self._consumed_mark(),
            base_backup_id=base.backup_id,
        )
        self._records[backup_id] = record
        return record

    def record(self, backup_id: int) -> BackupRecord:
        try:
            return self._records[backup_id]
        except KeyError:
            raise BackupError(f"no backup with id {backup_id}") from None

    def chain(self, backup_id: int) -> "List[BackupRecord]":
        """The restore chain, oldest (the full base) first."""
        out: List[BackupRecord] = []
        current: "Optional[int]" = backup_id
        while current is not None:
            record = self.record(current)
            out.append(record)
            current = record.base_backup_id
        out.reverse()
        if out[0].kind != "full":
            raise BackupError(
                f"backup chain of {backup_id} does not end in a full backup"
            )
        return out

    # ------------------------------------------------------------------ #
    # restore
    # ------------------------------------------------------------------ #

    def restore(self, backup_id: int) -> int:
        """Restore the database to the backup; returns objects copied back.

        Re-installs the backup's catalog, replays the chain to put every
        captured object back on its dbspace (skipping ones still present),
        resets the engine's transactional state, and GCs back to the backup
        as a snapshot restore does (the current retention FIFO stays).
        """
        records = self.chain(backup_id)
        target = records[-1]
        db = self.db
        for txn in db.txn_manager.active_transactions():
            db.txn_manager.rollback(txn)

        copied = 0
        for record in records:
            for dbspace_name, object_name in record.objects:
                try:
                    store = db.node.dbspace(dbspace_name)
                except KeyError:
                    raise BackupError(
                        f"dbspace {dbspace_name!r} from the backup does not "
                        "exist; recreate it before restoring"
                    ) from None
                if store.io.exists(object_name):
                    continue
                payload = self.backup_store.get(
                    f"{record.backup_id}/{dbspace_name}/{object_name}"
                )
                # Administrative re-creation bypasses the client's
                # never-write-twice ledger: the key is globally unique and
                # its one legitimate value is being reinstated.
                store.io.client.store.put(object_name, payload)  # type: ignore[attr-defined]
                copied += 1

        db.catalog = Catalog.from_bytes(target.catalog_bytes)
        db.txn_manager.catalog = db.catalog
        db.txn_manager.restore_chain([])
        retention = db.snapshot_manager
        db._rewind(target.max_allocated_key,
                   retention.fifo() if retention is not None else [],
                   target.created_at)
        db.node.invalidate_caches()
        db.drop_query_caches()
        db.checkpoint()
        return copied
