"""Transactions, MVCC versioning, the commit chain and garbage collection.

SAP IQ uses table-level versioning with snapshot isolation (Section 2):
a transaction pins the versions current at its begin; writers fork a
table's blockmap copy-on-write, flush dirty pages before commit (the log
carries metadata only) and publish a new identity at commit.

Garbage collection follows Section 3.3:

- each transaction records allocations in its **RB** bitmap and superseded
  committed pages in its **RF** bitmap, both partitioned by dbspace;
- pages superseded *within* the same transaction are immediately dead
  ("local garbage") and are reclaimed at commit;
- on rollback, everything the transaction allocated is deleted right away —
  and the coordinator's key generator is deliberately *not* notified, so a
  later node-restart GC will re-poll those keys (a cheap no-op) instead of
  paying an RPC per rollback;
- on commit, the RF/RB bitmaps are persisted (embedded in the commit log
  record), the transaction enters the *commit chain*, and its RF pages are
  deleted only once no active transaction can still reference the
  superseded versions;
- when a :class:`~repro.core.snapshot.SnapshotManager` is attached, RF
  pages on cloud dbspaces are handed to it for retention-deferred deletion
  instead of being deleted (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple

from repro.core.bitmaps import LocatorBitmap
from repro.core.buffer import BufferManager, ObjectHandle
from repro.core.keygen import ObjectKeyGenerator
from repro.core.log import (
    GC_COLLECT,
    TXN_COMMIT,
    TXN_ROLLBACK,
    TransactionLog,
)
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.sim.tracing import NULL_TRACER
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import PageStore
from repro.storage.identity import Catalog, IdentityObject
from repro.storage.locator import is_object_key

CP_COMMIT_BEFORE_FLUSH = register_crash_point(
    "txn.commit.before_flush",
    "commit requested, nothing durable yet (clean pre-commit crash)",
)
CP_COMMIT_AFTER_FLUSH_FOR_COMMIT = register_crash_point(
    "txn.commit.after_flush_for_commit",
    "queued write-backs drained to the store, dirty pages not yet flushed",
)
CP_COMMIT_AFTER_PAGE_FLUSH = register_crash_point(
    "txn.commit.after_page_flush",
    "all data pages uploaded, no identity published, no commit logged",
)
CP_COMMIT_BEFORE_PUBLISH = register_crash_point(
    "txn.commit.before_publish",
    "blockmap flushed for one handle, its identity not yet published",
)
CP_COMMIT_AFTER_PUBLISH = register_crash_point(
    "txn.commit.after_publish",
    "identities published in memory, commit record not yet logged "
    "(the commit must vanish on recovery)",
)
CP_COMMIT_BEFORE_LOG = register_crash_point(
    "txn.commit.before_log",
    "chain entry built and sequenced, TXN_COMMIT not yet appended",
)
CP_COMMIT_AFTER_LOG = register_crash_point(
    "txn.commit.after_log",
    "TXN_COMMIT logged, frame promotion/keygen notification lost "
    "(the commit must survive recovery)",
)
CP_ROLLBACK_BEFORE_FREE = register_crash_point(
    "txn.rollback.before_free",
    "rollback decided, allocated objects not yet deleted",
)
CP_ROLLBACK_AFTER_FREE = register_crash_point(
    "txn.rollback.after_free",
    "rolled-back allocations deleted, TXN_ROLLBACK not yet logged",
)
CP_GC_BEFORE_APPLY_RF = register_crash_point(
    "txn.gc.before_apply_rf",
    "chain entry popped, RF pages neither freed nor retained yet",
)
CP_GC_AFTER_APPLY_RF = register_crash_point(
    "txn.gc.after_apply_rf",
    "RF pages freed/retained, GC_COLLECT not yet logged",
)
CP_GC_AFTER_LOG = register_crash_point(
    "txn.gc.after_log",
    "GC_COLLECT logged for the entry, loop may have more entries",
)


class TransactionError(Exception):
    """Isolation violations, double commits, unknown objects."""


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


class NodeContext(Protocol):
    """What a transaction needs from the node it runs on."""

    node_id: str
    buffer: BufferManager

    def dbspace(self, name: str) -> PageStore:
        """The node's I/O view of the named dbspace."""
        ...

    def blockmap_for(self, identity: IdentityObject) -> Blockmap:
        """A (cached) read-only blockmap for a committed identity."""
        ...


class _DbspaceSink:
    """GC sink bound to one (transaction, dbspace) pair."""

    def __init__(self, txn: "Transaction", dbspace_name: str) -> None:
        self._txn = txn
        self._name = dbspace_name

    def on_allocate(self, locator: int) -> None:
        txn = self._txn
        txn.rb_for(self._name).add(locator)
        txn.all_allocated_for(self._name).add(locator)

    def on_replace(self, old_locator: int, fresh: bool) -> None:
        txn = self._txn
        if fresh:
            txn.rb_for(self._name).discard(old_locator)
            txn.local_garbage.setdefault(self._name, []).append(old_locator)
        else:
            txn.rf_for(self._name).add(old_locator)


class Transaction:
    """One transaction: snapshot, write handles, RF/RB bitmaps."""

    def __init__(self, txn_id: int, node: NodeContext, begin_seq: int,
                 snapshot: "Dict[int, int]") -> None:
        self.txn_id = txn_id
        self.node = node
        self.begin_seq = begin_seq
        self.snapshot = snapshot
        self.status = TxnStatus.ACTIVE
        self.rf: Dict[str, LocatorBitmap] = {}
        self.rb: Dict[str, LocatorBitmap] = {}
        self.all_allocated: Dict[str, LocatorBitmap] = {}
        self.local_garbage: Dict[str, List[int]] = {}
        self.write_handles: Dict[int, ObjectHandle] = {}
        self.read_handles: Dict[int, ObjectHandle] = {}
        self._sinks: Dict[str, _DbspaceSink] = {}

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def rf_for(self, dbspace: str) -> LocatorBitmap:
        return self.rf.setdefault(dbspace, LocatorBitmap())

    def rb_for(self, dbspace: str) -> LocatorBitmap:
        return self.rb.setdefault(dbspace, LocatorBitmap())

    def all_allocated_for(self, dbspace: str) -> LocatorBitmap:
        return self.all_allocated.setdefault(dbspace, LocatorBitmap())

    def sink_for(self, dbspace: str) -> _DbspaceSink:
        if dbspace not in self._sinks:
            self._sinks[dbspace] = _DbspaceSink(self, dbspace)
        return self._sinks[dbspace]

    def is_active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

    def touched_dbspaces(self) -> "List[str]":
        names = set(self.rf) | set(self.rb) | set(self.local_garbage)
        for handle in self.write_handles.values():
            names.add(handle.dbspace.name)
        return sorted(names)

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, node={self.node_id!r}, "
            f"status={self.status.value})"
        )


@dataclass
class CommitChainEntry:
    """A committed transaction awaiting garbage collection."""

    commit_seq: int
    txn_id: int
    node_id: str
    rf: "Dict[str, LocatorBitmap]"
    rb: "Dict[str, LocatorBitmap]"
    superseded: "List[Tuple[int, int]]"  # (object_id, old_version)

    def to_payload(self) -> "Dict[str, object]":
        return {
            "commit_seq": self.commit_seq,
            "txn_id": self.txn_id,
            "node_id": self.node_id,
            "rf": {name: bm.to_bytes().decode("utf-8") for name, bm in self.rf.items()},
            "rb": {name: bm.to_bytes().decode("utf-8") for name, bm in self.rb.items()},
            "superseded": list(self.superseded),
        }

    @classmethod
    def from_payload(cls, payload: "Dict[str, object]") -> "CommitChainEntry":
        return cls(
            commit_seq=int(payload["commit_seq"]),  # type: ignore[arg-type]
            txn_id=int(payload["txn_id"]),  # type: ignore[arg-type]
            node_id=str(payload["node_id"]),
            rf={
                name: LocatorBitmap.from_bytes(raw.encode("utf-8"))
                for name, raw in payload["rf"].items()  # type: ignore[union-attr]
            },
            rb={
                name: LocatorBitmap.from_bytes(raw.encode("utf-8"))
                for name, raw in payload["rb"].items()  # type: ignore[union-attr]
            },
            superseded=[tuple(pair) for pair in payload["superseded"]],  # type: ignore[union-attr,misc]
        )


class TransactionManager:
    """Global (coordinator-side) transaction authority.

    Owns the catalog, the commit chain, begin/commit sequencing, table
    write locks and garbage collection.  Nodes supply their local I/O
    context (buffer manager, dbspace views) per transaction.
    """

    def __init__(
        self,
        catalog: Catalog,
        log: TransactionLog,
        keygen: "Optional[ObjectKeyGenerator]" = None,
        gc_dbspaces: "Optional[Dict[str, PageStore]]" = None,
        snapshot_manager: "Optional[object]" = None,
        identity_write_cost: "Optional[Callable[[], None]]" = None,
    ) -> None:
        self.catalog = catalog
        self.log = log
        self.keygen = keygen
        # Dbspace views used for GC deletions (the coordinator's views).
        self.gc_dbspaces: Dict[str, PageStore] = dict(gc_dbspaces or {})
        self.snapshot_manager = snapshot_manager
        self._identity_write_cost = identity_write_cost
        self._next_txn_id = 1
        self._commit_seq = 0
        self._active: Dict[int, Transaction] = {}
        self._chain: Deque[CommitChainEntry] = deque()
        self._write_locks: Dict[int, int] = {}  # object_id -> txn_id
        self.stats = {
            "commits": 0,
            "rollbacks": 0,
            "flush_promotions": 0,
            "gc_entries_collected": 0,
            "gc_pages_deleted": 0,
            "gc_pages_retained": 0,
        }
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def commit_seq(self) -> int:
        return self._commit_seq

    def register_gc_dbspace(self, name: str, store: PageStore) -> None:
        self.gc_dbspaces[name] = store

    def active_transactions(self) -> "List[Transaction]":
        return list(self._active.values())

    def chain_length(self) -> int:
        return len(self._chain)

    def begin(self, node: NodeContext) -> Transaction:
        """Start a transaction pinning the current committed versions."""
        txn = Transaction(self._next_txn_id, node, self._commit_seq,
                          self.catalog.current_versions())
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    # ------------------------------------------------------------------ #
    # handle acquisition
    # ------------------------------------------------------------------ #

    def open_for_read(self, txn: Transaction, name: str) -> ObjectHandle:
        """Read handle at the transaction's snapshot version."""
        self._check_active(txn)
        object_id = self.catalog.object_id(name)
        cached = txn.read_handles.get(object_id)
        if cached is not None:
            return cached
        # A writer reads its own uncommitted state.
        if object_id in txn.write_handles:
            return txn.write_handles[object_id]
        version = txn.snapshot.get(object_id)
        if version is None:
            # Object created after this transaction began: not visible.
            raise TransactionError(
                f"object {name!r} is not visible to transaction {txn.txn_id}"
            )
        identity = self.catalog.identity(object_id, version)
        blockmap = txn.node.blockmap_for(identity)
        handle = ObjectHandle(
            object_id=object_id,
            name=name,
            dbspace=txn.node.dbspace(identity.dbspace),
            blockmap=blockmap,
            version=version,
            page_count=identity.page_count,
            writable=False,
        )
        txn.read_handles[object_id] = handle
        return handle

    def open_for_write(self, txn: Transaction, name: str) -> ObjectHandle:
        """Write handle; takes the object's table-level write lock."""
        self._check_active(txn)
        object_id = self.catalog.object_id(name)
        cached = txn.write_handles.get(object_id)
        if cached is not None:
            return cached
        holder = self._write_locks.get(object_id)
        if holder is not None and holder != txn.txn_id:
            raise TransactionError(
                f"write-write conflict on {name!r}: held by txn {holder}"
            )
        self._write_locks[object_id] = txn.txn_id
        current = self.catalog.current(object_id)
        if txn.snapshot.get(object_id) != current.version:
            # Cannot happen while the lock is honoured, but guard anyway.
            self._write_locks.pop(object_id, None)
            raise TransactionError(
                f"snapshot of {name!r} is stale under txn {txn.txn_id}"
            )
        base_blockmap = txn.node.blockmap_for(current)
        handle = ObjectHandle(
            object_id=object_id,
            name=name,
            dbspace=txn.node.dbspace(current.dbspace),
            blockmap=base_blockmap.fork(),
            version=current.version,
            page_count=current.page_count,
            writable=True,
            txn=txn,
        )
        txn.write_handles[object_id] = handle
        return handle

    def _check_active(self, txn: Transaction) -> None:
        if not txn.is_active():
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.status.value}"
            )

    # ------------------------------------------------------------------ #
    # commit
    # ------------------------------------------------------------------ #

    def commit(self, txn: Transaction) -> None:
        """Flush, version, log and enter the commit chain."""
        self._check_active(txn)
        node = txn.node
        crash_point(CP_COMMIT_BEFORE_FLUSH)
        # 1. FlushForCommit: promote this transaction's queued write-back
        #    uploads and switch its writes to write-through (Section 4).
        #    They drain as adjacent-key batches of up to the client's
        #    run length; either way the commit waits for every upload.
        touched = txn.touched_dbspaces()
        with self.tracer.span("commit_flush_promotion", "txn",
                              txn_id=txn.txn_id, dbspaces=len(touched)):
            for dbspace_name in touched:
                node.dbspace(dbspace_name).flush_for_commit(txn.txn_id)
                self.stats["flush_promotions"] += 1
        crash_point(CP_COMMIT_AFTER_FLUSH_FOR_COMMIT)
        # 2. Flush remaining dirty pages write-through; durability before
        #    commit because the log carries metadata only.
        node.buffer.flush_txn(txn.txn_id, commit_mode=True)
        crash_point(CP_COMMIT_AFTER_PAGE_FLUSH)
        # 3. Cascade blockmap versioning and publish new identities.
        new_versions: Dict[int, int] = {}
        superseded: List[Tuple[int, int]] = []
        identities: List[IdentityObject] = []
        for object_id, handle in sorted(txn.write_handles.items()):
            sink = txn.sink_for(handle.dbspace.name)
            new_root = handle.blockmap.flush(
                sink, txn_id=txn.txn_id, commit_mode=True
            )
            crash_point(CP_COMMIT_BEFORE_PUBLISH)
            new_version = handle.version + 1
            identity = IdentityObject(
                object_id=object_id,
                name=handle.name,
                version=new_version,
                root_locator=new_root,
                height=handle.blockmap.height,
                page_count=handle.page_count,
                dbspace=handle.dbspace.name,
            )
            self.catalog.publish(identity)
            identities.append(identity)
            new_versions[object_id] = new_version
            superseded.append((object_id, handle.version))
            if self._identity_write_cost is not None:
                # Identity objects live in the system dbspace and are
                # updated in place (strong consistency): one small write.
                self._identity_write_cost()
        crash_point(CP_COMMIT_AFTER_PUBLISH)
        # 4. Reclaim local garbage (same-transaction page rewrites).
        self._reclaim_local_garbage(txn)
        # 5. Sequence the commit, log it, enter the commit chain.
        self._commit_seq += 1
        entry = CommitChainEntry(
            commit_seq=self._commit_seq,
            txn_id=txn.txn_id,
            node_id=txn.node_id,
            rf={name: bm for name, bm in txn.rf.items() if bm},
            rb={name: bm for name, bm in txn.rb.items() if bm},
            superseded=superseded,
        )
        self._chain.append(entry)
        consumed = self._consumed_key_ranges(txn)
        crash_point(CP_COMMIT_BEFORE_LOG)
        self.log.append(
            TXN_COMMIT,
            {
                "txn_id": txn.txn_id,
                "node": txn.node_id,
                "chain_entry": entry.to_payload(),
                "identities": [identity.to_dict() for identity in identities],
                "consumed_key_ranges": consumed,
            },
        )
        crash_point(CP_COMMIT_AFTER_LOG)
        # 6. Tell the key generator which keys are now tracked by RF/RB.
        if self.keygen is not None and consumed:
            self.keygen.notify_committed(txn.node_id, consumed)
        # 7. Promote cached frames to the new versions; finish bookkeeping.
        node.buffer.promote_txn_frames(txn.txn_id, new_versions)
        for object_id, handle in txn.write_handles.items():
            handle.blockmap.mark_committed()
            node.publish_blockmap(handle.blockmap,
                                  self.catalog.current(object_id))
        txn.status = TxnStatus.COMMITTED
        self._release(txn)
        self.stats["commits"] += 1
        self.collect_garbage()

    def _consumed_key_ranges(self, txn: Transaction) -> "List[Tuple[int, int]]":
        merged = LocatorBitmap()
        for bitmap in txn.all_allocated.values():
            for key in bitmap.cloud_keys():
                merged.add(key)
        return [tuple(pair) for pair in merged.cloud_key_ranges()]

    def _reclaim_local_garbage(self, txn: Transaction) -> None:
        for dbspace_name, locators in txn.local_garbage.items():
            store = self._store_for(txn, dbspace_name)
            if store is not None:
                store.free_pages(locators)
        txn.local_garbage.clear()

    def _store_for(self, txn: "Optional[Transaction]",
                   dbspace_name: str) -> "Optional[PageStore]":
        if txn is not None:
            try:
                return txn.node.dbspace(dbspace_name)
            except KeyError:
                pass
        return self.gc_dbspaces.get(dbspace_name)

    # ------------------------------------------------------------------ #
    # rollback
    # ------------------------------------------------------------------ #

    def rollback(self, txn: Transaction) -> None:
        """Undo everything the transaction allocated, immediately."""
        self._check_active(txn)
        node = txn.node
        crash_point(CP_ROLLBACK_BEFORE_FREE)
        node.buffer.drop_txn_frames(txn.txn_id)
        for dbspace_name in txn.touched_dbspaces():
            store = self._store_for(txn, dbspace_name)
            if store is None:
                continue
            store_discard = getattr(store.io, "discard_txn", None) if store.is_cloud else None
            if store_discard is not None:
                # Drop the OCM's pending background uploads for this txn.
                store_discard(txn.txn_id)
            allocated = txn.all_allocated.get(dbspace_name)
            if allocated:
                # Deleting never-uploaded keys is a no-op (S3 semantics).
                store.free_pages(list(allocated))
        # Deliberately NOT notifying the key generator: the active set keeps
        # the rolled-back keys, and a future node-restart GC will re-poll
        # them — cheaper than an RPC per rollback (Section 3.3, Table 1).
        crash_point(CP_ROLLBACK_AFTER_FREE)
        self.log.append(
            TXN_ROLLBACK, {"txn_id": txn.txn_id, "node": txn.node_id}
        )
        txn.status = TxnStatus.ROLLED_BACK
        self._release(txn)
        self.stats["rollbacks"] += 1
        self.collect_garbage()

    def abort_in_crash(self, txn: Transaction) -> None:
        """Abandon a transaction whose node crashed: no cleanup runs here.

        The allocations persist as orphaned objects until the node-restart
        GC polls the coordinator's active set for the node (Section 3.3).
        """
        txn.status = TxnStatus.ROLLED_BACK
        self._active.pop(txn.txn_id, None)
        for object_id, holder in list(self._write_locks.items()):
            if holder == txn.txn_id:
                del self._write_locks[object_id]

    def _release(self, txn: Transaction) -> None:
        self._active.pop(txn.txn_id, None)
        for object_id, holder in list(self._write_locks.items()):
            if holder == txn.txn_id:
                del self._write_locks[object_id]

    # ------------------------------------------------------------------ #
    # garbage collection
    # ------------------------------------------------------------------ #

    def _min_active_begin_seq(self) -> int:
        if not self._active:
            return self._commit_seq
        return min(txn.begin_seq for txn in self._active.values())

    def collect_garbage(self) -> int:
        """Collect unreferenced commit-chain entries; returns pages freed.

        The oldest entry is collectible once every active transaction began
        at or after its commit — no snapshot can still reference the
        versions it superseded.
        """
        freed = 0
        horizon = self._min_active_begin_seq()
        while self._chain and self._chain[0].commit_seq <= horizon:
            entry = self._chain.popleft()
            # A crash anywhere in this body is safe: GC_COLLECT is logged
            # last, so recovery re-enters the entry into the chain and the
            # re-run frees/retains idempotently.
            crash_point(CP_GC_BEFORE_APPLY_RF)
            freed += self._apply_rf(entry)
            crash_point(CP_GC_AFTER_APPLY_RF)
            for object_id, old_version in entry.superseded:
                if self.catalog.has_version(object_id, old_version):
                    self.catalog.drop_version(object_id, old_version)
            self.log.append(GC_COLLECT, {"commit_seq": entry.commit_seq})
            self.stats["gc_entries_collected"] += 1
            crash_point(CP_GC_AFTER_LOG)
        return freed

    def _apply_rf(self, entry: CommitChainEntry) -> int:
        freed = 0
        for dbspace_name, bitmap in entry.rf.items():
            store = self.gc_dbspaces.get(dbspace_name)
            if store is None:
                continue
            locators = list(bitmap)
            if store.is_cloud and self.snapshot_manager is not None:
                # Retention: ownership moves to the snapshot manager.
                self.snapshot_manager.retain(dbspace_name, locators)  # type: ignore[attr-defined]
                self.stats["gc_pages_retained"] += len(locators)
            else:
                store.free_pages(locators)
                self.stats["gc_pages_deleted"] += len(locators)
            freed += len(locators)
        return freed

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def chain_entries(self) -> "List[CommitChainEntry]":
        """The commit chain, oldest first (auditor's pending-GC set)."""
        return list(self._chain)

    def chain_state(self) -> "List[Dict[str, object]]":
        return [entry.to_payload() for entry in self._chain]

    def restore_chain(self, payloads: "List[Dict[str, object]]") -> None:
        self._chain = deque(
            CommitChainEntry.from_payload(payload) for payload in payloads
        )
        if self._chain:
            self._commit_seq = max(self._commit_seq,
                                   self._chain[-1].commit_seq)

    def adopt(self, txn: Transaction) -> None:
        """Re-register a surviving transaction after coordinator recovery.

        Secondary-node transactions outlive a coordinator crash; the
        recovered manager re-learns them and re-takes their write locks.
        """
        if not txn.is_active():
            raise TransactionError(
                f"cannot adopt transaction {txn.txn_id}: {txn.status.value}"
            )
        self._active[txn.txn_id] = txn
        self._next_txn_id = max(self._next_txn_id, txn.txn_id + 1)
        for object_id in txn.write_handles:
            holder = self._write_locks.get(object_id)
            if holder is not None and holder != txn.txn_id:
                raise TransactionError(
                    f"write lock on object {object_id} already held by "
                    f"txn {holder}"
                )
            self._write_locks[object_id] = txn.txn_id
