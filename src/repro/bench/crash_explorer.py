"""Seeded crash exploration: kill the engine at every registered point.

Each *episode* builds a small engine, runs a fixed churn workload (multi-
page commits, a buffer-overflowing wide transaction, DDL, a rollback, a
snapshot, a mid-episode crash/restart), arms exactly one crash point, and
lets the workload run into it.  Whenever the point fires, the raised
:class:`~repro.sim.crashpoints.SimulatedCrash` is translated into ordinary
crash semantics and the engine is restarted — repeatedly if the point
fires again during recovery.  After a final drain (restart GC, chain
collection, retention expiry, reap) the episode asserts the paper's
correctness claims:

1. **No committed data lost** — every page image the workload knows to be
   committed reads back byte-identical through cold caches.  Commits the
   crash interrupted are resolved by probing: the page matches either the
   pre-commit or the post-commit image, never a third thing.
2. **No MISSING objects** — the :class:`~repro.core.audit.StoreAuditor`
   finds every catalog- or snapshot-referenced object on the store.
3. **LEAKED drains to zero** — after restart GC and retention reap,
   nothing on the store is uncovered by metadata.

A deliberately broken GC (:func:`install_broken_gc`) inverts the third
assertion: the auditor *must* flag leaks, proving fsck actually detects
the failure mode it exists for.

Episodes are deterministic: same point + same seed -> same outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.audit import AuditError, AuditReport, StoreAuditor
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import Database, DatabaseConfig
from repro.objectstore.replicated import ReplicationConfig
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash
from repro.sim.rng import DeterministicRng

PAGE_SIZE = 4096
PAYLOAD_BYTES = 1024
# Buffer frames hold the written payload bytes; 16 payloads' worth of
# capacity means the wide transaction below overflows it mid-transaction.
BUFFER_FRAMES = 16
PAGES = 3
# Enough dirty pages in one transaction to overflow the buffer, forcing
# write-back eviction (and therefore an OCM upload queue to crash into).
WIDE_PAGES = 2 * BUFFER_FRAMES
RETENTION_SECONDS = 30.0
MAX_RECOVERY_ATTEMPTS = 8


@dataclass
class EpisodeResult:
    """Outcome of one crash-and-recover episode."""

    crash_point: "Optional[str]"
    seed: int
    mode: str = "churn"
    fired: int = 0
    crashes: int = 0
    violations: "List[str]" = field(default_factory=list)
    report: "Optional[AuditReport]" = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> "Dict[str, object]":
        return {
            "crash_point": self.crash_point,
            "seed": self.seed,
            "mode": self.mode,
            "fired": self.fired,
            "crashes": self.crashes,
            "ok": self.ok,
            "violations": list(self.violations),
            "audit": self.report.to_dict() if self.report else None,
        }


# Every episode runs the engine as shipped.  These points exist only on
# its batched write path — a ranged PUT needs a run length above 1 — so
# a re-sweep under the ``DatabaseConfig.paper()`` fields leaves them out.
WRITE_PIPELINE_PREFIXES = ("client.put_range.",)


def base_config(
    seed: int, overrides: "Optional[Dict[str, object]]" = None
) -> DatabaseConfig:
    """A deliberately tiny engine: small pages, a buffer that thrashes."""
    settings: "Dict[str, object]" = dict(
        seed=seed,
        page_size=PAGE_SIZE,
        buffer_capacity_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
        ocm_capacity_bytes=4 * 1024 * 1024,
        # Small system volume: recovery decodes its freelist bitmap on
        # every restart, and episodes restart many times.
        system_volume_size_bytes=32 * 1024 * 1024,
        retention_seconds=RETENTION_SECONDS,
    )
    if overrides:
        settings.update(overrides)
    return DatabaseConfig(**settings)  # type: ignore[arg-type]


def build_engine(
    seed: int, overrides: "Optional[Dict[str, object]]" = None
) -> Database:
    return Database(base_config(seed, overrides))


def install_broken_gc(db: Database) -> None:
    """Sabotage GC: superseded pages are neither freed nor retained.

    The regression fixture for the auditor — a database run under this
    must end with LEAKED objects that ``repro fsck`` flags.  Re-install
    after every restart: recovery builds a fresh transaction manager.
    """
    db.txn_manager._apply_rf = lambda entry: 0  # type: ignore[method-assign]


def _payload(obj: str, page: int, gen: int, seed: int) -> bytes:
    header = f"{obj}:{page}:{gen}:{seed}:".encode()
    body = bytes(
        (page * 131 + gen * 17 + seed * 3 + i * 7) % 251
        for i in range(PAYLOAD_BYTES - len(header))
    )
    return header + body


def registered_points() -> "List[str]":
    """Every registered crash point (forces all instrumented imports)."""
    import repro.core.autoscale  # noqa: F401  (registers the prewarm point)
    import repro.core.multiplex  # noqa: F401  (imports the whole engine)
    import repro.core.scrub  # noqa: F401  (registers the scrub points)

    return CRASH_POINTS.names()


# ---------------------------------------------------------------------- #
# the churn episode (single node)
# ---------------------------------------------------------------------- #

def run_churn_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    broken_gc: bool = False,
    arm_skip: int = 0,
    config_overrides: "Optional[Dict[str, object]]" = None,
    deep: bool = False,
) -> EpisodeResult:
    """One seeded churn workload crashed (maybe repeatedly) at one point."""
    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="churn")
    db = build_engine(seed, config_overrides)
    if broken_gc:
        install_broken_gc(db)
    expected: "Dict[Tuple[str, int], bytes]" = {}

    def recover() -> None:
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            if not db.crashed:
                break
            try:
                db.restart()
            except SimulatedCrash as exc:
                result.crashes += 1
                db.crash_from(exc)
        else:
            result.violations.append("recovery did not converge")
        if broken_gc:
            install_broken_gc(db)

    def guarded(fn: "Callable[[], object]") -> bool:
        """Run one workload step; on a simulated crash, recover. True if
        the step ran to completion."""
        try:
            fn()
            return True
        except SimulatedCrash as exc:
            result.crashes += 1
            db.crash_from(exc)
            recover()
            return False

    def probe(obj: str, page: int) -> "Optional[bytes]":
        txn = db.begin()
        try:
            data: "Optional[bytes]" = db.read_page(txn, obj, page)
        except SimulatedCrash:
            raise
        except Exception:
            data = None
        try:
            db.rollback(txn)
        except SimulatedCrash:
            raise
        except Exception:
            pass
        return data

    def commit_generation(obj: str, gen: int, pages: int = PAGES,
                          double_write: bool = False) -> None:
        staged = {p: _payload(obj, p, gen, seed) for p in range(pages)}

        def work() -> None:
            txn = db.begin()
            if double_write:
                # Same-transaction supersede: local garbage, reclaimed
                # without telling the coordinator (Section 3.3).
                db.write_page(txn, obj, 0, _payload(obj, 0, gen, seed + 1))
            for p, data in staged.items():
                db.write_page(txn, obj, p, data)
            db.commit(txn)

        if guarded(work):
            for p, data in staged.items():
                expected[(obj, p)] = data
            return
        # The crash interrupted the commit: resolve whether it landed by
        # probing page 0 against both possible images.
        got = probe(obj, 0)
        if got == staged[0]:
            for p, data in staged.items():
                if p != 0 and probe(obj, p) != data:
                    result.violations.append(
                        f"torn commit: {obj!r} gen {gen} page {p} does not "
                        "match the committed image"
                    )
            for p, data in staged.items():
                expected[(obj, p)] = data
        elif got == expected.get((obj, 0)):
            pass  # the commit never landed; the old generation survives
        else:
            result.violations.append(
                f"atomicity: {obj!r} gen {gen} page 0 matches neither the "
                "pre-commit nor the post-commit image"
            )

    point = None
    fired_before = 0
    try:
        # --- pre-arm baseline: generation 0 is always fully committed --- #
        db.create_object("t0")
        db.create_object("t1")
        commit_generation("t0", 0)
        commit_generation("t1", 0)

        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)

        # --- churn ------------------------------------------------------ #
        commit_generation("t0", 1, double_write=True)
        commit_generation("t1", 1)
        guarded(lambda: db.create_object("extra"))
        # One wide transaction overflows the buffer: dirty eviction queues
        # OCM write-backs, which commit must upload (flush_for_commit).
        commit_generation("t0", 2, pages=WIDE_PAGES)
        guarded(db.create_snapshot)
        # Supersede again so the retention FIFO has entries to reap.
        commit_generation("t0", 3)

        def rollback_generation() -> None:
            txn = db.begin()
            for p in range(PAGES):
                db.write_page(txn, "t1", p, _payload("t1", p, 99, seed))
            db.rollback(txn)

        guarded(rollback_generation)

        # Forced mid-episode crash: exercises replay, checkpoint, restart
        # GC and orphan polling while the armed point is still live.
        if not db.crashed:
            db.crash()
        recover()
        commit_generation("t1", 4)

        # --- drain: everything transient must go to zero ---------------- #
        for __ in range(4):
            try:
                if not db.crashed:
                    db.crash()
                recover()
                db.txn_manager.collect_garbage()
                if db.snapshot_manager is not None:
                    db.clock.advance(RETENTION_SECONDS + 1.0)
                    db.snapshot_manager.reap()
                db.txn_manager.collect_garbage()
                break
            except SimulatedCrash as exc:
                result.crashes += 1
                db.crash_from(exc)
        else:
            result.violations.append("drain did not converge")
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    if db.crashed:
        recover()

    # --- invariant 1: committed data survives cold --------------------- #
    db.node.invalidate_caches()
    if db.ocm is not None:
        db.ocm.invalidate_all()
    for (obj, page), data in sorted(expected.items()):
        if probe(obj, page) != data:
            result.violations.append(
                f"data loss: committed page {obj!r}/{page} unreadable or "
                "altered after recovery"
            )

    # --- invariants 2 and 3: the auditor's verdict ---------------------- #
    try:
        report = StoreAuditor(db).audit(deep=deep)
    except AuditError as exc:
        result.violations.append(f"audit failed: {exc}")
        return result
    result.report = report
    if report.missing or report.snapshot_missing:
        result.violations.append(
            f"MISSING objects after recovery: {len(report.missing)} live, "
            f"{len(report.snapshot_missing)} snapshot-only"
        )
    if deep and (report.corrupt or report.region_corrupt):
        result.violations.append(
            f"CORRUPT objects after recovery: {len(report.corrupt)} "
            f"primary, {len(report.region_corrupt)} regional"
        )
    if broken_gc:
        if not report.leaked:
            result.violations.append(
                "the auditor failed to flag the broken GC's leaked objects"
            )
    elif report.leaked:
        result.violations.append(
            f"LEAKED objects did not drain to zero: {len(report.leaked)}"
        )
    return result


# ---------------------------------------------------------------------- #
# the multiplex episode (secondary restart GC)
# ---------------------------------------------------------------------- #

def run_multiplex_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Crash the coordinator mid restart-GC of a dead writer node."""
    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="multiplex")
    mux = Multiplex(base_config(seed), MultiplexConfig(
        writers=1,
        secondary_buffer_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
        secondary_ocm_bytes=4 * 1024 * 1024,
    ))
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    expected: "Dict[Tuple[str, int], bytes]" = {}

    coordinator.create_object("t0")
    txn = writer.begin()
    for p in range(PAGES):
        data = _payload("t0", p, 0, seed)
        writer.write_page(txn, "t0", p, data)
        expected[("t0", p)] = data
    writer.commit(txn)

    point = None
    fired_before = 0
    try:
        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)
        # Orphan uploads: objects on the shared store whose keys only the
        # writer's active set covers.
        for i in range(3):
            writer.user_dbspace.write_page(
                _payload("orphan", i, 1, seed), commit_mode=True
            )
        writer.crash()
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            try:
                writer.restart()
                break
            except SimulatedCrash as exc:
                result.crashes += 1
                writer.crash_from(exc)
        else:
            result.violations.append("writer restart did not converge")
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    coordinator.txn_manager.collect_garbage()

    txn = coordinator.begin()
    for (obj, p), data in sorted(expected.items()):
        if coordinator.read_page(txn, obj, p) != data:
            result.violations.append(
                f"data loss: committed page {obj!r}/{p} altered after the "
                "writer's crash"
            )
    coordinator.rollback(txn)

    report = StoreAuditor(coordinator).audit()
    result.report = report
    if report.missing or report.snapshot_missing:
        result.violations.append("MISSING objects after writer restart")
    if report.leaked:
        result.violations.append(
            f"writer restart GC leaked {len(report.leaked)} orphans"
        )
    return result


# ---------------------------------------------------------------------- #
# the scale episode (autoscale: pre-warm admit, drain-and-retire)
# ---------------------------------------------------------------------- #

SCALE_PREWARM_BUDGET = 4 * 1024 * 1024
SCALE_ORPHANS = 2


def run_scale_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Kill a node mid scale-event; prove the scale cycle loses nothing.

    One full autoscale cycle runs by hand: provision a secondary,
    pre-warm its OCM from the coordinator's warm set, commit a
    generation through it, upload orphans only its active set covers,
    then drain-and-retire it.  The armed crash point kills the node
    somewhere inside that cycle; the episode recovers exactly as the
    controller's host would (restart the wounded node — restart GC
    reclaims its orphans — then retire it for real) and retries the
    cycle on a fresh node.  Afterwards: every committed generation reads
    back through the coordinator, and the auditor finds no MISSING and
    no LEAKED objects — a node dying mid-retire leaks nothing.
    """
    from repro.core.autoscale import prewarm_secondary

    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="scale")
    mux = Multiplex(base_config(seed), MultiplexConfig(
        writers=1,
        secondary_buffer_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
        secondary_ocm_bytes=4 * 1024 * 1024,
    ))
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    expected: "Dict[Tuple[str, int], bytes]" = {}

    def commit_via(node, obj: str, gen: int) -> None:
        txn = node.begin()
        staged = {}
        for p in range(PAGES):
            data = _payload(obj, p, gen, seed)
            node.write_page(txn, obj, p, data)
            staged[(obj, p)] = data
        node.commit(txn)
        expected.update(staged)

    # Baseline, plus a warm coordinator OCM for pre-warm to donate from.
    coordinator.create_object("t0")
    commit_via(writer, "t0", 0)
    txn = coordinator.begin()
    for p in range(PAGES):
        coordinator.read_page(txn, "t0", p)
    coordinator.rollback(txn)

    def recover_node(node) -> None:
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            try:
                node.restart()
                return
            except SimulatedCrash as exc:
                result.crashes += 1
                node.crash_from(exc)
        result.violations.append("node restart did not converge")

    def scale_cycle(gen: int) -> bool:
        """One provision -> prewarm -> serve -> retire cycle; True if it
        ran end to end without the armed point firing."""
        node = mux.add_secondary("writer")
        try:
            prewarm_secondary(node, coordinator.ocm, SCALE_PREWARM_BUDGET)
            commit_via(node, "t0", gen)
            # Orphan uploads: store objects covered only by this node's
            # active set — exactly what a mid-retire death would strand.
            for i in range(SCALE_ORPHANS):
                node.user_dbspace.write_page(
                    _payload("orphan", i, gen, seed), commit_mode=True
                )
            mux.retire_secondary(node.node_id)
            return True
        except SimulatedCrash as exc:
            result.crashes += 1
            if node.node_id not in mux.nodes:
                # The crash hit after detach: the retire itself already
                # completed (flush + GC), nothing to clean up.
                return False
            node.crash_from(exc)
            recover_node(node)
            if not node.crashed:
                try:
                    mux.retire_secondary(node.node_id)
                except SimulatedCrash as inner:
                    result.crashes += 1
                    if node.node_id in mux.nodes:
                        node.crash_from(inner)
                        recover_node(node)
            return False

    point = None
    fired_before = 0
    try:
        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            if scale_cycle(attempt + 1):
                break
        else:
            result.violations.append("scale cycle did not converge")
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    # Wounded nodes that could not be retired (restart non-convergence)
    # still get their keys reclaimed by coordinator-side GC.
    coordinator.txn_manager.collect_garbage()

    # Invariant 1: every committed generation survives, read cold via
    # the coordinator (retired nodes' caches are gone by construction).
    coordinator.node.invalidate_caches()
    if coordinator.ocm is not None:
        coordinator.ocm.invalidate_all()
    txn = coordinator.begin()
    for (obj, p), data in sorted(expected.items()):
        if coordinator.read_page(txn, obj, p) != data:
            result.violations.append(
                f"data loss: committed page {obj!r}/{p} lost across the "
                "scale cycle"
            )
    coordinator.rollback(txn)

    # Invariants 2 and 3: nothing missing, mid-retire orphans all drained.
    report = StoreAuditor(coordinator).audit()
    result.report = report
    if report.missing or report.snapshot_missing:
        result.violations.append("MISSING objects after the scale episode")
    if report.leaked:
        result.violations.append(
            f"scale episode leaked {len(report.leaked)} objects"
        )
    return result


# ---------------------------------------------------------------------- #
# the restore episode (point-in-time rewind)
# ---------------------------------------------------------------------- #

def run_restore_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Crash during a snapshot restore; either side of the crash must be
    a consistent database (rewound or not — never half of each)."""
    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="restore")
    db = build_engine(seed)

    def commit_generation(gen: int) -> "Dict[Tuple[str, int], bytes]":
        staged = {("t0", p): _payload("t0", p, gen, seed)
                  for p in range(PAGES)}
        txn = db.begin()
        for (__, p), data in staged.items():
            db.write_page(txn, "t0", p, data)
        db.commit(txn)
        return staged

    db.create_object("t0")
    gen0 = commit_generation(0)
    snapshot = db.create_snapshot()
    gen1 = commit_generation(1)

    point = None
    fired_before = 0
    completed = False
    try:
        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)
        try:
            db.restore_snapshot(snapshot.snapshot_id)
            completed = True
        except SimulatedCrash as exc:
            result.crashes += 1
            db.crash_from(exc)
            for __ in range(MAX_RECOVERY_ATTEMPTS):
                if not db.crashed:
                    break
                try:
                    db.restart()
                except SimulatedCrash as inner:
                    result.crashes += 1
                    db.crash_from(inner)
            else:
                result.violations.append("recovery did not converge")
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    expected = gen0 if completed else gen1

    db.node.invalidate_caches()
    if db.ocm is not None:
        db.ocm.invalidate_all()
    txn = db.begin()
    for (obj, p), data in sorted(expected.items()):
        try:
            got: "Optional[bytes]" = db.read_page(txn, obj, p)
        except Exception:
            got = None
        if got != data:
            side = "rewound" if completed else "pre-restore"
            result.violations.append(
                f"data loss: {side} page {obj!r}/{p} unreadable or altered"
            )
    db.rollback(txn)

    # Drain: expire the snapshot, reap retention, collect the chain.
    db.txn_manager.collect_garbage()
    if db.snapshot_manager is not None:
        db.clock.advance(RETENTION_SECONDS + 1.0)
        db.snapshot_manager.reap()
    db.txn_manager.collect_garbage()

    report = StoreAuditor(db).audit()
    result.report = report
    if report.missing or report.snapshot_missing:
        result.violations.append("MISSING objects after restore episode")
    if report.leaked:
        result.violations.append(
            f"restore episode leaked {len(report.leaked)} objects"
        )
    return result


# ---------------------------------------------------------------------- #
# the failover episode (region outage -> promote -> heal)
# ---------------------------------------------------------------------- #

# Long enough that the fence + promote + restart GC all happen *inside*
# the outage; the heal phase then advances past it plus the horizon.
REGION_OUTAGE_SECONDS = 60.0
REPLICATION_HORIZON = 5.0
FAILOVER_REGIONS = ("region-a", "region-b")


def failover_overrides() -> "Dict[str, object]":
    return dict(
        replication=ReplicationConfig(
            regions=FAILOVER_REGIONS,
            mean_lag_seconds=0.2,
            staleness_horizon=REPLICATION_HORIZON,
        ),
    )


def run_failover_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Region outage on the primary, failover mid-crash, heal, audit.

    The invariants are the DR claims of DESIGN.md §12: *no committed data
    is lost within the replication horizon* (every acknowledged write
    survives the failover because promotion drains the queue first), and
    *leaks drain after failover + heal* (restart-GC tombstones replicate
    into the healed region and beat the orphans under last-writer-wins).
    """
    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="failover")
    mux = Multiplex(base_config(seed, failover_overrides()), MultiplexConfig(
        writers=1,
        secondary_buffer_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
        secondary_ocm_bytes=4 * 1024 * 1024,
    ))
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    store = coordinator.object_store
    expected: "Dict[Tuple[str, int], bytes]" = {}

    def commit_via(node, obj: str, gen: int) -> None:
        txn = node.begin()
        for p in range(PAGES):
            data = _payload(obj, p, gen, seed)
            node.write_page(txn, obj, p, data)
            expected[(obj, p)] = data
        node.commit(txn)

    # Baseline on the original primary; replication trails behind it.
    coordinator.create_object("t0")
    commit_via(writer, "t0", 0)

    point = None
    fired_before = 0
    try:
        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)

        # Orphan uploads covered only by the writer's active set; they
        # land on the primary and queue for replication like any write.
        for i in range(3):
            writer.user_dbspace.write_page(
                _payload("orphan", i, 1, seed), commit_mode=True
            )
        writer.crash()

        # The primary region goes away; the writer's orphans and the
        # baseline commits are already acknowledged, so none may be lost.
        outage_start = mux.clock.now()
        mux.inject_region_outage(
            FAILOVER_REGIONS[0],
            (outage_start, outage_start + REGION_OUTAGE_SECONDS),
        )
        mux.clock.advance(0.001)

        # Fail over to the surviving region.  The target is pinned so a
        # crash at any failover point is recovered by re-running the
        # (idempotent) failover against the same region.
        target = FAILOVER_REGIONS[1]
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            try:
                mux.region_failover(to_region=target)
                break
            except SimulatedCrash as exc:
                result.crashes += 1
                coordinator.crash_from(exc)
                for __ in range(MAX_RECOVERY_ATTEMPTS):
                    if not coordinator.crashed:
                        break
                    try:
                        coordinator.restart()
                    except SimulatedCrash as inner:
                        result.crashes += 1
                        coordinator.crash_from(inner)
        else:
            result.violations.append("region failover did not converge")

        # Restart GC reclaims the orphans on the *new* primary; the blind
        # deletes replicate as tombstones into the dead region's queue.
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            try:
                writer.restart()
                break
            except SimulatedCrash as exc:
                result.crashes += 1
                writer.crash_from(exc)
        else:
            result.violations.append("writer restart did not converge")

        # Life goes on against the new primary.
        commit_via(writer, "t0", 1)
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    # Heal: ride past the outage end plus the staleness horizon, then
    # reconcile the healed region (idempotent drain).
    schedule = store.fault_schedule
    heal_at = (schedule.horizon if schedule is not None else mux.clock.now())
    mux.clock.advance_to(max(mux.clock.now(), heal_at) + REPLICATION_HORIZON + 1.0)
    store.pump(mux.clock.now())
    coordinator.txn_manager.collect_garbage()
    if coordinator.snapshot_manager is not None:
        coordinator.clock.advance(RETENTION_SECONDS + 1.0)
        coordinator.snapshot_manager.reap()
    coordinator.txn_manager.collect_garbage()
    # GC's own deletes queue fresh tombstones; give them one more horizon
    # to propagate before requiring empty queues.
    mux.clock.advance(REPLICATION_HORIZON + 1.0)
    store.pump(mux.clock.now())
    if store.pending_count():
        result.violations.append(
            f"replication queues did not drain after heal: "
            f"{store.pending_count()} entries pending"
        )

    # Invariant 1: every acknowledged commit survives, cold, on the new
    # primary — zero committed-data loss within the replication horizon.
    txn = coordinator.begin()
    for (obj, p), data in sorted(expected.items()):
        if coordinator.read_page(txn, obj, p) != data:
            result.violations.append(
                f"data loss: committed page {obj!r}/{p} lost in failover"
            )
    coordinator.rollback(txn)

    # Invariants 2 and 3, across every region: nothing missing anywhere,
    # the healed region's orphan leaks all drained.
    report = StoreAuditor(coordinator).audit()
    result.report = report
    if report.missing or report.snapshot_missing:
        result.violations.append("MISSING objects after failover")
    if report.leaked:
        result.violations.append(
            f"failover episode leaked {len(report.leaked)} objects"
        )
    if report.region_missing:
        result.violations.append(
            f"regional data loss after heal: {len(report.region_missing)}"
        )
    if report.region_leaked or report.region_divergent:
        result.violations.append(
            "healed region did not reconcile: "
            f"{len(report.region_leaked)} leaked, "
            f"{len(report.region_divergent)} divergent"
        )
    if report.staleness_violations:
        result.violations.append(
            f"bounded staleness broken: {len(report.staleness_violations)}"
        )
    return result


# ---------------------------------------------------------------------- #
# the scrub episode (at-rest rot -> crash mid-repair -> re-scrub)
# ---------------------------------------------------------------------- #

SCRUB_DAMAGED_OBJECTS = 4


def run_scrub_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Crash the scrubber mid-repair; prove the repair is idempotent.

    A two-region replicated store converges, then a handful of stored
    primary copies are bit-flipped in place — silent at-rest rot.  The
    scrubber runs with one of its repair-bracketing crash points armed;
    whenever it fires, the engine recovers and the scrub simply runs
    again.  Because a repair overwrites the damaged version with the
    replica's clean bytes *under the same op-time*, replaying it after a
    crash on either side of the overwrite converges on the same state.
    The episode asserts that afterwards every committed page reads back
    byte-identical through cold caches and a deep audit finds zero
    CORRUPT copies in any region.
    """
    from repro.core.scrub import Scrubber

    CRASH_POINTS.disarm_all()
    result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                           mode="scrub")
    overrides = failover_overrides()
    overrides["verify_reads"] = True
    db = build_engine(seed, overrides)
    expected: "Dict[Tuple[str, int], bytes]" = {}

    db.create_object("t0")
    for gen in range(2):
        txn = db.begin()
        for p in range(PAGES):
            data = _payload("t0", p, gen, seed)
            db.write_page(txn, "t0", p, data)
            expected[("t0", p)] = data
        db.commit(txn)
        db.clock.advance(0.5)

    # Let replication land every version so each region can repair the
    # other, then rot a few primary copies in place.
    store = db.object_store
    db.clock.advance(REPLICATION_HORIZON + 1.0)
    store.pump(db.clock.now())
    primary = store.store_for(FAILOVER_REGIONS[0])
    damaged = 0
    for name in sorted(primary.all_keys()):
        if damaged >= SCRUB_DAMAGED_OBJECTS:
            break
        if primary.latest_data(name) is None:
            continue
        if store.inject_damage(name, flips=2):
            damaged += 1
    if not damaged:
        result.violations.append("no stored objects available to damage")
        return result

    point = None
    fired_before = 0
    scrub_report = None
    try:
        if crash_point_name is not None:
            point = CRASH_POINTS.point(crash_point_name)
            fired_before = point.fired
            CRASH_POINTS.arm(crash_point_name, skip=arm_skip)
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            try:
                scrub_report = Scrubber(db).run()
                break
            except SimulatedCrash as exc:
                result.crashes += 1
                db.crash_from(exc)
                for __ in range(MAX_RECOVERY_ATTEMPTS):
                    if not db.crashed:
                        break
                    try:
                        db.restart()
                    except SimulatedCrash as inner:
                        result.crashes += 1
                        db.crash_from(inner)
                else:
                    result.violations.append("recovery did not converge")
        else:
            result.violations.append("scrub did not converge")
    finally:
        CRASH_POINTS.disarm_all()
        if point is not None:
            result.fired = point.fired - fired_before

    if scrub_report is not None and scrub_report.quarantined:
        result.violations.append(
            f"scrub quarantined {len(scrub_report.quarantined)} copies a "
            "healthy replica should have repaired"
        )

    # Invariant 1: committed pages survive cold — through *verified*
    # reads, so a missed repair surfaces as a failure here too.
    db.node.invalidate_caches()
    if db.ocm is not None:
        db.ocm.invalidate_all()
    txn = db.begin()
    for (obj, p), data in sorted(expected.items()):
        try:
            got: "Optional[bytes]" = db.read_page(txn, obj, p)
        except SimulatedCrash:
            raise
        except Exception:
            got = None
        if got != data:
            result.violations.append(
                f"data loss: committed page {obj!r}/{p} unreadable or "
                "altered after the scrub"
            )
    db.rollback(txn)

    # Invariant 2: a deep audit finds zero CORRUPT copies anywhere.
    report = StoreAuditor(db).audit(deep=True)
    result.report = report
    if report.corrupt or report.region_corrupt:
        result.violations.append(
            f"at-rest damage survived the scrub: {len(report.corrupt)} "
            f"primary, {len(report.region_corrupt)} regional"
        )
    if report.missing or report.snapshot_missing:
        result.violations.append("MISSING objects after the scrub episode")
    if report.region_divergent:
        result.violations.append(
            f"regions diverged after repair: {len(report.region_divergent)}"
        )
    return result


# ---------------------------------------------------------------------- #
# exploration drivers
# ---------------------------------------------------------------------- #

def run_episode(
    crash_point_name: "Optional[str]",
    seed: int = 0,
    broken_gc: bool = False,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Route a crash point to the episode that can actually traverse it.

    An episode armed without a skip that never reaches its point is a
    violation: a sweep reporting "fired 0 ... ok" has silently shrunk.
    """
    result = _route_episode(crash_point_name, seed, broken_gc, arm_skip)
    if crash_point_name is not None and not arm_skip and not result.fired:
        result.violations.append(
            f"crash point {crash_point_name!r} never fired: its episode "
            "no longer traverses it"
        )
    return result


def _route_episode(crash_point_name: "Optional[str]", seed: int,
                   broken_gc: bool, arm_skip: int) -> EpisodeResult:
    if crash_point_name is not None:
        if crash_point_name.startswith(("multiplex.failover.",
                                        "replication.")):
            return run_failover_episode(crash_point_name, seed=seed,
                                        arm_skip=arm_skip)
        if crash_point_name.startswith(("autoscale.",
                                        "multiplex.retire.")):
            return run_scale_episode(crash_point_name, seed=seed,
                                     arm_skip=arm_skip)
        if crash_point_name.startswith("multiplex."):
            return run_multiplex_episode(crash_point_name, seed=seed,
                                         arm_skip=arm_skip)
        if crash_point_name.startswith("engine.restore."):
            return run_restore_episode(crash_point_name, seed=seed,
                                       arm_skip=arm_skip)
        if crash_point_name.startswith("scrub."):
            return run_scrub_episode(crash_point_name, seed=seed,
                                     arm_skip=arm_skip)
    return run_churn_episode(crash_point_name, seed=seed,
                             broken_gc=broken_gc, arm_skip=arm_skip)


def explore_all_points(seed: int = 0,
                       broken_gc: bool = False) -> "List[EpisodeResult]":
    """One episode per registered crash point, in sorted name order."""
    return [
        run_episode(name, seed=seed, broken_gc=broken_gc)
        for name in registered_points()
    ]


def explore_random(count: int = 10, seed: int = 0) -> "List[EpisodeResult]":
    """Seeded random schedules: random point, random arming delay."""
    points = registered_points()
    rng = DeterministicRng(seed, "crash-explorer")
    results = []
    for i in range(count):
        sub = rng.substream(f"episode/{i}")
        name = sub.choice(points)
        skip = sub.randint(0, 2)
        results.append(run_episode(name, seed=seed + i, arm_skip=skip))
    return results
