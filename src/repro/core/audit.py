"""The store auditor: a "cloud fsck" for the simulated object store.

The engine's metadata claims to account for every object in the bucket:

- the **catalog** (every committed version's blockmap walk) covers live
  data pages and blockmap pages;
- registered **snapshots** cover pages only their captured catalogs still
  reference;
- the **retention FIFO** covers superseded pages awaiting deletion;
- the **commit chain** (RF/RB bitmaps of not-yet-collected commits) covers
  pages whose deletion or tracking is still pending;
- the **keygen active sets** cover keys handed to nodes whose transactions
  have not committed — including crashed nodes' orphans awaiting restart
  GC.

:class:`StoreAuditor` walks all five against the bucket's ground truth and
classifies every object.  Anything present but uncovered is **LEAKED**
(storage paid for forever, the failure mode Stocator-style naming protocols
must prevent); anything covered by the catalog or a snapshot but absent is
**MISSING** (data loss).  A healthy engine — crashed mid-protocol at any
registered crash point, recovered, drained — must show neither.

The audit never advances the virtual clock: it reads the simulated store's
ground truth directly (``latest_data``), not through the timed, visibility-
filtered client path, because fsck verifies what *is*, not what a reader
would currently observe under eventual consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.objectstore.replicated import ReplicatedObjectStore
from repro.storage.blockmap import Blockmap, BlockmapError
from repro.storage.dbspace import CloudDbspace
from repro.storage.keys import object_key_from_name
from repro.storage.locator import NULL_LOCATOR, is_object_key
from repro.storage.identity import Catalog

if TYPE_CHECKING:
    from repro.engine import Database


class AuditError(Exception):
    """Auditor misuse (no cloud dbspaces, unknown database state)."""


class _MissingPageError(Exception):
    """A metadata walk touched a locator absent from the store."""

    def __init__(self, locator: int) -> None:
        super().__init__(f"page {locator:#x} is not on the store")
        self.locator = locator


class _PeekPageStore:
    """Un-timed, visibility-blind page reads for metadata walks.

    Quacks like a :class:`~repro.storage.dbspace.PageStore` for
    :class:`~repro.storage.blockmap.Blockmap`, which only needs
    ``read_page``.  Reads go straight to the simulated store's latest
    versions so the audit neither advances the clock nor trips over
    eventual-consistency lag.
    """

    def __init__(self, dbspace: CloudDbspace, store) -> None:
        self._dbspace = dbspace
        self._store = store

    def read_page(self, locator: int) -> bytes:
        # A rotted interior slot can hold a block locator: it names no
        # object, so the page it points at is missing from the store.
        raw = None
        if is_object_key(locator):
            raw = self._store.latest_data(self._dbspace.object_name(locator))
        if raw is None:
            raise _MissingPageError(locator)
        return raw


@dataclass
class AuditReport:
    """Machine-readable outcome of one store audit."""

    objects_scanned: int = 0
    live: int = 0
    snapshot_retained: int = 0
    pending_gc: int = 0
    active_covered: int = 0
    # (dbspace, key) pairs — present on the store, covered by nothing.
    leaked: "List[Tuple[str, int]]" = field(default_factory=list)
    # (dbspace, key) pairs — referenced by the current catalog, absent.
    missing: "List[Tuple[str, int]]" = field(default_factory=list)
    # (dbspace, key) pairs — referenced only by a snapshot, absent.
    snapshot_missing: "List[Tuple[str, int]]" = field(default_factory=list)
    # FIFO/chain entries whose objects are already gone (benign: the
    # free-then-pop windows make re-deletion idempotent, not harmful).
    already_freed: int = 0
    # Bucket names that do not parse as page objects (foreign objects).
    unparseable: "List[str]" = field(default_factory=list)
    # Multi-region convergence (empty/zero on single-region stores):
    # regions audited against the primary's ground truth.
    regions_audited: "List[str]" = field(default_factory=list)
    # (region, key) — object the primary holds, absent from the region,
    # with no queued replication entry covering it: regional data loss.
    region_missing: "List[Tuple[str, int]]" = field(default_factory=list)
    # (region, key) — object present in the region, gone from the
    # primary, with no queued tombstone: a regional orphan.
    region_leaked: "List[Tuple[str, int]]" = field(default_factory=list)
    # (region, key) — region holds different bytes than the primary and
    # no queued entry explains it.
    region_divergent: "List[Tuple[str, int]]" = field(default_factory=list)
    # Queued entries explaining a divergence (benign: replication in
    # flight, or deferred by an outage on the target region).
    region_pending: int = 0
    # (region, key) — queued entries that outlived the staleness horizon
    # without being outage-deferred: the bounded-staleness guarantee broke.
    staleness_violations: "List[Tuple[str, int]]" = field(default_factory=list)
    # Deep (content) verification — populated only by ``audit(deep=True)``:
    # every present object's stored bytes are re-hashed against the
    # store's recorded CRC-32C.
    deep: bool = False
    content_verified: int = 0
    # (dbspace, key) — present on the primary, bytes fail their checksum.
    corrupt: "List[Tuple[str, int]]" = field(default_factory=list)
    # (region, key) — a secondary region's copy fails its checksum.
    region_corrupt: "List[Tuple[str, int]]" = field(default_factory=list)

    def ok(self) -> bool:
        """No leaks, no data loss, every region convergent-or-pending,
        and (under ``deep``) no content corruption anywhere."""
        return not (
            self.leaked
            or self.missing
            or self.snapshot_missing
            or self.region_missing
            or self.region_leaked
            or self.region_divergent
            or self.staleness_violations
            or self.corrupt
            or self.region_corrupt
        )

    def to_dict(self) -> "Dict[str, object]":
        return {
            "ok": self.ok(),
            "objects_scanned": self.objects_scanned,
            "live": self.live,
            "snapshot_retained": self.snapshot_retained,
            "pending_gc": self.pending_gc,
            "active_covered": self.active_covered,
            "leaked": [[name, key] for name, key in self.leaked],
            "missing": [[name, key] for name, key in self.missing],
            "snapshot_missing": [
                [name, key] for name, key in self.snapshot_missing
            ],
            "already_freed": self.already_freed,
            "unparseable": list(self.unparseable),
            "regions_audited": list(self.regions_audited),
            "region_missing": [[r, key] for r, key in self.region_missing],
            "region_leaked": [[r, key] for r, key in self.region_leaked],
            "region_divergent": [
                [r, key] for r, key in self.region_divergent
            ],
            "region_pending": self.region_pending,
            "staleness_violations": [
                [r, key] for r, key in self.staleness_violations
            ],
            "deep": self.deep,
            "content_verified": self.content_verified,
            "corrupt": [[name, key] for name, key in self.corrupt],
            "region_corrupt": [
                [r, key] for r, key in self.region_corrupt
            ],
        }


class StoreAuditor:
    """Walks engine metadata against the object store's ground truth."""

    def __init__(self, db: "Database") -> None:
        self.db = db

    # ------------------------------------------------------------------ #
    # reference-set construction
    # ------------------------------------------------------------------ #

    def _walk_catalog(
        self,
        catalog: Catalog,
        dbspace: CloudDbspace,
        target: "Set[int]",
    ) -> None:
        """Add every cloud locator reachable from ``catalog`` to ``target``.

        A walk that dies on a missing or structurally nonsensical interior
        page adds what it can attribute and moves on — the audit must
        survive the very corruption it is looking for.  (A rotted blockmap
        page stays *present*, so the classification pass counts it and
        the deep pass flags it CORRUPT.)
        """
        peek = _PeekPageStore(dbspace, dbspace.io.client.store)
        for identity in catalog.all_identities():
            if identity.root_locator == NULL_LOCATOR:
                continue
            try:
                blockmap = Blockmap(
                    peek,
                    root_locator=identity.root_locator,
                    height=identity.height,
                )
                for locator in blockmap.live_locators():
                    if is_object_key(locator):
                        target.add(locator)
            except _MissingPageError as error:
                # Both the missing page and the root belong to the
                # reference set; the classification pass reports whichever
                # of them the store does not hold as MISSING.
                target.add(identity.root_locator)
                if is_object_key(error.locator):
                    target.add(error.locator)
            except BlockmapError:
                # The damaged page decoded into a structurally wrong
                # node — same story, but only the root is attributable.
                target.add(identity.root_locator)

    def _snapshot_catalogs(self) -> "List[Catalog]":
        manager = self.db.snapshot_manager
        if manager is None:
            return []
        return [
            Catalog.from_bytes(snapshot.catalog_bytes)
            for snapshot in manager.snapshots()
        ]

    def _chain_refs(self) -> "Set[int]":
        refs: "Set[int]" = set()
        for entry in self.db.txn_manager.chain_entries():
            refs.update(entry.rf.cloud_keys())
            refs.update(entry.rb.cloud_keys())
        return refs

    def _retained_refs(self) -> "Set[int]":
        manager = self.db.snapshot_manager
        if manager is None:
            return set()
        return set(manager.retained_locators())

    def _active_intervals(self) -> "List[Tuple[int, int]]":
        merged: "List[Tuple[int, int]]" = []
        for active in self.db.keygen.active_sets().values():
            merged.extend(active.intervals())
        return sorted(merged)

    @staticmethod
    def _covered(key: int, intervals: "List[Tuple[int, int]]") -> bool:
        for lo, hi in intervals:
            if lo <= key <= hi:
                return True
            if lo > key:
                return False
        return False

    # ------------------------------------------------------------------ #
    # the audit
    # ------------------------------------------------------------------ #

    def audit(self, deep: bool = False) -> AuditReport:
        """Classify every object in the cloud bucket; update metrics.

        ``deep`` adds content verification on top of the existence-based
        classification: every present object's stored bytes are re-hashed
        with CRC-32C against the store's recorded checksum (in every
        region for replicated stores).  Mismatches classify as CORRUPT —
        the class a bit flip at rest falls into, invisible to the
        existence audit because the damaged object is still *there*.
        """
        db = self.db
        if not isinstance(db.user_dbspace, CloudDbspace):
            raise AuditError("no cloud dbspaces to audit")
        with db.tracer.span("fsck", "audit", deep=deep):
            report = self._audit(db.user_dbspace, deep)
        db.metrics.counter("fsck_runs").increment()
        db.metrics.gauge("fsck_leaked").set(len(report.leaked))
        db.metrics.gauge("fsck_missing").set(
            len(report.missing) + len(report.snapshot_missing)
        )
        if deep:
            db.metrics.counter("fsck_deep_runs").increment()
            db.metrics.gauge("fsck_corrupt").set(
                len(report.corrupt) + len(report.region_corrupt)
            )
        return report

    def _audit(self, dbspace: CloudDbspace,
               deep: bool = False) -> AuditReport:
        report = AuditReport(deep=deep)
        label = dbspace.name
        store = dbspace.io.client.store

        live_keys: "Set[int]" = set()
        self._walk_catalog(self.db.catalog, dbspace, live_keys)
        snap_keys: "Set[int]" = set()
        for catalog in self._snapshot_catalogs():
            self._walk_catalog(catalog, dbspace, snap_keys)
        retained_keys = self._retained_refs()
        chain_keys = self._chain_refs()
        intervals = self._active_intervals()

        present: "Set[int]" = set()
        for object_name in store.all_keys():  # type: ignore[attr-defined]
            try:
                key = object_key_from_name(object_name)
            except ValueError:
                report.unparseable.append(object_name)
                continue
            present.add(key)
            report.objects_scanned += 1
            if deep:
                report.content_verified += 1
                if store.verify_at_rest(object_name) is False:  # type: ignore[attr-defined]
                    report.corrupt.append((label, key))
            if key in live_keys:
                report.live += 1
            elif key in snap_keys or key in retained_keys:
                report.snapshot_retained += 1
            elif key in chain_keys:
                report.pending_gc += 1
            elif self._covered(key, intervals):
                report.active_covered += 1
            else:
                report.leaked.append((label, key))
        for key in sorted(live_keys - present):
            report.missing.append((label, key))
        for key in sorted(snap_keys - live_keys - present):
            report.snapshot_missing.append((label, key))
        report.already_freed += len(
            (retained_keys | chain_keys) - present - live_keys - snap_keys
        )
        if isinstance(store, ReplicatedObjectStore):
            self._audit_regions(store, report, deep)
        return report

    def _audit_regions(self, store: ReplicatedObjectStore,
                       report: AuditReport, deep: bool = False) -> None:
        """Audit every secondary region against the primary ground truth.

        Convergence is judged *modulo the replication queue*: a
        divergence explained by a queued entry (replication in flight, or
        deferred by an outage on the target region) is benign pending;
        anything unexplained is regional loss/leak/divergence.  On top of
        convergence, the bounded-staleness invariant is checked: no
        queued entry may outlive ``op_time + staleness_horizon`` unless
        outage-deferred.
        """
        now = self.db.clock.now()
        store.pump(now)
        horizon = store.config.staleness_horizon
        primary = store.primary

        def key_of(name: str) -> "Optional[int]":
            try:
                return object_key_from_name(name)
            except ValueError:
                return None

        for region in store.secondary_regions():
            report.regions_audited.append(region)
            regional = store.store_for(region)
            pending = {e.key: e for e in store.pending_for(region)}
            report.region_pending += len(pending)
            primary_names = set(primary.all_keys())
            region_names = set(regional.all_keys())
            if deep:
                for name in sorted(region_names):
                    key = key_of(name)
                    if key is None:
                        continue
                    report.content_verified += 1
                    if regional.verify_at_rest(name) is False:
                        report.region_corrupt.append((region, key))
            for name in sorted(primary_names - region_names):
                key = key_of(name)
                if key is None:
                    continue
                entry = pending.get(name)
                if entry is None or entry.data is None:
                    report.region_missing.append((region, key))
            for name in sorted(region_names - primary_names):
                key = key_of(name)
                if key is None:
                    continue
                entry = pending.get(name)
                if entry is None or entry.data is not None:
                    report.region_leaked.append((region, key))
            for name in sorted(primary_names & region_names):
                key = key_of(name)
                if key is None or name in pending:
                    continue
                if primary.latest_data(name) != regional.latest_data(name):
                    report.region_divergent.append((region, key))
            for name, entry in sorted(pending.items()):
                key = key_of(name)
                if key is None or entry.deferred:
                    continue
                if now > entry.op_time + horizon:
                    report.staleness_violations.append((region, key))
