"""Transactions, MVCC versioning, the commit chain and garbage collection.

SAP IQ uses table-level versioning with snapshot isolation (Section 2):
a transaction pins the versions current at its begin; writers fork a
table's blockmap copy-on-write, flush dirty pages before commit (the log
carries metadata only) and publish a new identity at commit.

Garbage collection follows Section 3.3:

- each transaction records allocations in its **RB** bitmap and superseded
  committed pages in its **RF** bitmap (pages live in the one user
  dbspace, so one bitmap of each suffices);
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
  pages on a cloud dbspace are handed to it for retention-deferred
  deletion instead of being deleted (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
from repro.storage.dbspace import PageStore, WriteBatch
from repro.storage.identity import USER_DBSPACE, Catalog, IdentityObject

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
    "the commit's one write (data pages and blockmap nodes) landed, "
    "no identity published, no commit logged",
)
CP_COMMIT_BEFORE_PUBLISH = register_crash_point(
    "txn.commit.before_publish",
    "the commit's write landed, one handle's identity not yet published",
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
    dbspace: PageStore  # the node's I/O view of the user dbspace

    def blockmap_for(self, identity: IdentityObject) -> Blockmap:
        """A (cached) read-only blockmap for a committed identity."""
        ...


class Transaction:
    """One transaction: snapshot, write handles, RF/RB bitmaps.

    It is also the GC sink of its blockmaps and page flushes.
    """

    def __init__(self, txn_id: int, node: NodeContext, begin_seq: int,
                 snapshot: "Dict[int, int]") -> None:
        self.txn_id = txn_id
        self.node = node
        self.begin_seq = begin_seq
        self.snapshot = snapshot
        self.status = TxnStatus.ACTIVE
        self.rf = LocatorBitmap()
        self.rb = LocatorBitmap()
        self.all_allocated = LocatorBitmap()
        self.local_garbage: List[int] = []
        self.write_handles: Dict[int, ObjectHandle] = {}
        self.read_handles: Dict[int, ObjectHandle] = {}
        # Set when commit's write-through fails: only rollback is left.
        self.write_failed = False

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def on_allocate(self, locator: int) -> None:
        self.rb.add(locator)
        self.all_allocated.add(locator)

    def on_replace(self, old_locator: int, fresh: bool) -> None:
        if fresh:
            self.rb.discard(old_locator)
            self.local_garbage.append(old_locator)
        else:
            self.rf.add(old_locator)

    def is_active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

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
    rf: LocatorBitmap
    rb: LocatorBitmap
    superseded: "List[Tuple[int, int]]"  # (object_id, old_version)

    @staticmethod
    def _encode(bitmap: LocatorBitmap) -> "Dict[str, str]":
        # The persisted form keys the bitmap by dbspace name and leaves
        # out an empty one.
        if not bitmap:
            return {}
        return {USER_DBSPACE: bitmap.to_bytes().decode("utf-8")}

    @staticmethod
    def _decode(encoded: "Dict[str, str]") -> LocatorBitmap:
        raw = encoded.get(USER_DBSPACE)
        if raw is None:
            return LocatorBitmap()
        return LocatorBitmap.from_bytes(raw.encode("utf-8"))

    def to_payload(self) -> "Dict[str, object]":
        return {
            "commit_seq": self.commit_seq,
            "txn_id": self.txn_id,
            "node_id": self.node_id,
            "rf": self._encode(self.rf),
            "rb": self._encode(self.rb),
            "superseded": list(self.superseded),
        }

    @classmethod
    def from_payload(cls, payload: "Dict[str, object]") -> "CommitChainEntry":
        return cls(
            commit_seq=int(payload["commit_seq"]),  # type: ignore[arg-type]
            txn_id=int(payload["txn_id"]),  # type: ignore[arg-type]
            node_id=str(payload["node_id"]),
            rf=cls._decode(payload["rf"]),  # type: ignore[arg-type]
            rb=cls._decode(payload["rb"]),  # type: ignore[arg-type]
            superseded=[tuple(pair) for pair in payload["superseded"]],  # type: ignore[union-attr,misc]
        )


class TransactionManager:
    """Global (coordinator-side) transaction authority.

    Owns the catalog, the commit chain, begin/commit sequencing, table
    write locks and garbage collection.  Nodes supply their local I/O
    context (buffer manager, dbspace view) per transaction; ``dbspace`` is
    the coordinator's view of the user dbspace, which commit-chain GC
    deletes through.
    """

    def __init__(
        self,
        catalog: Catalog,
        log: TransactionLog,
        dbspace: PageStore,
        keygen: "Optional[ObjectKeyGenerator]" = None,
        snapshot_manager: "Optional[object]" = None,
        identity_write_cost: "Optional[Callable[[], None]]" = None,
    ) -> None:
        self.catalog = catalog
        self.log = log
        self.dbspace = dbspace
        self.keygen = keygen
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
            dbspace=txn.node.dbspace,
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
            dbspace=txn.node.dbspace,
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
        if txn.write_failed:
            raise TransactionError(
                f"transaction {txn.txn_id} failed its commit write; "
                "roll it back"
            )
        node = txn.node
        crash_point(CP_COMMIT_BEFORE_FLUSH)
        # 1. FlushForCommit: promote this transaction's queued write-back
        #    uploads and switch its writes to write-through (Section 4).
        #    They drain as adjacent-key batches of up to the client's
        #    run length; either way the commit waits for every upload.
        touched = bool(txn.write_handles)
        with self.tracer.span("commit_flush_promotion", "txn",
                              txn_id=txn.txn_id, dbspaces=int(touched)):
            if touched:
                node.dbspace.flush_for_commit(txn.txn_id)
                self.stats["flush_promotions"] += 1
        crash_point(CP_COMMIT_AFTER_FLUSH_FOR_COMMIT)
        # 2. Write through the remaining dirty pages and every handle's
        #    blockmap cascade, bottom-up, as ONE batch: each page or node
        #    gets its fresh locator when staged (a node's bytes hold its
        #    children's), so adjacent keys share ranged PUTs and the roots
        #    ride the last.  Durability before commit: the log carries
        #    metadata only, and nothing is published before the write.
        batch: WriteBatch = []
        handles = sorted(txn.write_handles.items())
        try:
            node.buffer.flush_txn(txn.txn_id, batch=batch)
            roots = [handle.blockmap.flush(txn, batch)
                     for __, handle in handles]
            node.dbspace.write_batch(batch, txn.txn_id)
        except Exception:
            # The working blockmaps already hold the staged keys, so a
            # second commit would publish objects that never landed.
            txn.write_failed = True
            raise
        crash_point(CP_COMMIT_AFTER_PAGE_FLUSH)
        # 3. Publish the new identities.
        new_versions: Dict[int, int] = {}
        superseded: List[Tuple[int, int]] = []
        identities: List[IdentityObject] = []
        for (object_id, handle), new_root in zip(handles, roots):
            crash_point(CP_COMMIT_BEFORE_PUBLISH)
            new_version = handle.version + 1
            identity = IdentityObject(
                object_id=object_id,
                name=handle.name,
                version=new_version,
                root_locator=new_root,
                height=handle.blockmap.height,
                page_count=handle.page_count,
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
            rf=txn.rf,
            rb=txn.rb,
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
        return [tuple(pair) for pair in txn.all_allocated.cloud_key_ranges()]

    def _reclaim_local_garbage(self, txn: Transaction) -> None:
        if txn.local_garbage:
            txn.node.dbspace.free_pages(txn.local_garbage)
            txn.local_garbage = []

    # ------------------------------------------------------------------ #
    # rollback
    # ------------------------------------------------------------------ #

    def rollback(self, txn: Transaction) -> None:
        """Undo everything the transaction allocated, immediately."""
        self._check_active(txn)
        node = txn.node
        crash_point(CP_ROLLBACK_BEFORE_FREE)
        node.buffer.drop_txn_frames(txn.txn_id)
        if txn.write_handles:
            store = node.dbspace
            store_discard = getattr(store.io, "discard_txn", None) if store.is_cloud else None
            if store_discard is not None:
                # Drop the OCM's pending background uploads for this txn.
                store_discard(txn.txn_id)
            if txn.all_allocated:
                # Deleting never-uploaded keys is a no-op (S3 semantics).
                store.free_pages(list(txn.all_allocated))
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
        locators = list(entry.rf)
        if not locators:
            return 0
        if self.dbspace.is_cloud and self.snapshot_manager is not None:
            # Retention: ownership moves to the snapshot manager.
            self.snapshot_manager.retain(locators)  # type: ignore[attr-defined]
            self.stats["gc_pages_retained"] += len(locators)
        else:
            self.dbspace.free_pages(locators)
            self.stats["gc_pages_deleted"] += len(locators)
        return len(locators)

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
