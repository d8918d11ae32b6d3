"""Seeded crash exploration: kill the engine at every registered point.

Each *episode* builds a small engine, arms exactly one crash point, and
lets a fixed workload run into it.  Whenever the point fires, the raised
:class:`~repro.sim.crashpoints.SimulatedCrash` is translated into ordinary
crash semantics and the node is restarted — repeatedly if the point fires
again during recovery.  Six workloads share one skeleton
(:class:`Episode`): setup, armed workload, restart, cold verify, audit.
The churn episode (multi-page commits, a buffer-overflowing wide
transaction, DDL, a rollback, a snapshot, a mid-episode crash/restart and
a final drain) takes every point the other five — multiplex restart GC,
autoscale, restore, region failover and scrub — do not claim.  After
recovery every episode asserts the paper's correctness claims:

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

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.audit import AuditError, AuditReport, StoreAuditor
from repro.core.multiplex import Multiplex, MultiplexConfig, SecondaryNode
from repro.engine import Database, DatabaseConfig
from repro.objectstore.replicated import ReplicationConfig
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash

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

Node = Union[Database, SecondaryNode]
Pages = Dict[Tuple[str, int], bytes]


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
        # Small system volume: every checkpoint is charged the full length
        # of its freelist image, and episodes restart many times.
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


def build_multiplex(
    seed: int, overrides: "Optional[Dict[str, object]]" = None
) -> Multiplex:
    """The tiny engine as coordinator, plus one equally tiny writer."""
    return Multiplex(base_config(seed, overrides), MultiplexConfig(
        writers=1,
        secondary_buffer_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
        secondary_ocm_bytes=4 * 1024 * 1024,
    ))


def install_broken_gc(db: Database) -> None:
    """Sabotage GC: superseded pages are neither freed nor retained.

    The regression fixture for the auditor — a database run under this
    must end with LEAKED objects that ``repro fsck`` flags.  Re-install
    after every restart: recovery builds a fresh transaction manager.
    """
    db.txn_manager._apply_rf = lambda entry: 0  # type: ignore[method-assign]


def drain(db: Database) -> None:
    """GC, expire retention and reap, GC: everything transient goes."""
    db.txn_manager.collect_garbage()
    if db.snapshot_manager is not None:
        db.clock.advance(RETENTION_SECONDS + 1.0)
        db.snapshot_manager.reap()
    db.txn_manager.collect_garbage()


def _payload(obj: str, page: int, gen: int, seed: int) -> bytes:
    header = f"{obj}:{page}:{gen}:{seed}:".encode()
    body = bytes(
        (page * 131 + gen * 17 + seed * 3 + i * 7) % 251
        for i in range(PAYLOAD_BYTES - len(header))
    )
    return header + body


def _generation(obj: str, gen: int, seed: int, pages: int = PAGES) -> Pages:
    return {(obj, p): _payload(obj, p, gen, seed) for p in range(pages)}


def registered_points() -> "List[str]":
    """Every registered crash point (forces all instrumented imports)."""
    import repro.core.autoscale  # noqa: F401  (registers the prewarm point)
    import repro.core.multiplex  # noqa: F401  (imports the whole engine)
    import repro.core.scrub  # noqa: F401  (registers the scrub points)

    return CRASH_POINTS.names()


# ---------------------------------------------------------------------- #
# the skeleton every episode shares
# ---------------------------------------------------------------------- #

class Episode:
    """Setup -> armed workload -> restart -> cold verify -> audit.

    An episode builder keeps only its workload.  Which point is armed and
    how often it fired, how a crashed node comes back, what the workload
    has committed and how the verdict is reached live here once.
    """

    def __init__(self, mode: str, crash_point_name: "Optional[str]",
                 seed: int, arm_skip: int) -> None:
        CRASH_POINTS.disarm_all()
        self.result = EpisodeResult(crash_point=crash_point_name, seed=seed,
                                    mode=mode)
        self.seed = seed
        self.arm_skip = arm_skip
        # Every page image the workload knows to be committed.
        self.expected: Pages = {}
        # Runs after every restart (the broken-GC fixture re-installs).
        self.after_restart: "Optional[Callable[[], None]]" = None

    @contextmanager
    def armed(self) -> "Iterator[None]":
        """Arm the episode's point for the block; count its firings."""
        name = self.result.crash_point
        point = None if name is None else CRASH_POINTS.point(name)
        fired_before = point.fired if point is not None else 0
        try:
            if name is not None:
                CRASH_POINTS.arm(name, skip=self.arm_skip)
            yield
        finally:
            CRASH_POINTS.disarm_all()
            if point is not None:
                self.result.fired = point.fired - fired_before

    def restart(self, node: Node) -> None:
        """Restart a crashed node, through crashes fired by recovery."""
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            if not node.crashed:
                break
            try:
                node.restart()
            except SimulatedCrash as exc:
                self.result.crashes += 1
                node.crash_from(exc)
        if node.crashed:
            self.result.violations.append("recovery did not converge")
        if self.after_restart is not None:
            self.after_restart()

    def recover(self, node: Node, exc: SimulatedCrash) -> None:
        """A fired point kills ``node``; bring it back."""
        self.result.crashes += 1
        node.crash_from(exc)
        self.restart(node)

    def attempt(self, node: Node, step: "Callable[[], object]") -> bool:
        """Run one step, recovering ``node`` if a crash interrupts it.
        True if the step ran to completion."""
        try:
            step()
        except SimulatedCrash as exc:
            self.recover(node, exc)
            return False
        return True

    def retry(self, node: Node, step: "Callable[[], object]",
              what: str) -> None:
        """Run ``step`` until it completes, recovering ``node`` between
        tries: for steps that are idempotent by design."""
        for __ in range(MAX_RECOVERY_ATTEMPTS):
            if self.attempt(node, step):
                return
        self.result.violations.append(f"{what} did not converge")

    def commit(self, node: Node, obj: str, gen: int, pages: int = PAGES,
               double_write: bool = False) -> None:
        """Commit generation ``gen`` of ``obj``'s first ``pages`` pages;
        the images are expected once the commit returns."""
        staged = _generation(obj, gen, self.seed, pages)
        txn = node.begin()
        if double_write:
            # Same-transaction supersede: local garbage, reclaimed
            # without telling the coordinator (Section 3.3).
            node.write_page(txn, obj, 0, _payload(obj, 0, gen, self.seed + 1))
        for (__, page), data in staged.items():
            node.write_page(txn, obj, page, data)
        node.commit(txn)
        self.expected.update(staged)

    def upload_orphans(self, node: SecondaryNode, count: int,
                       gen: int) -> None:
        """Store objects only ``node``'s active set covers: exactly what
        its death strands for restart GC."""
        for i in range(count):
            node.user_dbspace.write_page(
                _payload("orphan", i, gen, self.seed), commit_mode=True
            )

    def verify(self, db: Database, expected: Pages) -> None:
        """Invariant 1: every committed page survives, read cold."""
        db.node.invalidate_caches()
        if db.ocm is not None:
            db.ocm.invalidate_all()
        txn = db.begin()
        for (obj, page), data in sorted(expected.items()):
            try:
                got: "Optional[bytes]" = db.read_page(txn, obj, page)
            except Exception:
                got = None
            if got != data:
                self.result.violations.append(
                    f"data loss: committed page {obj!r}/{page} unreadable "
                    "or altered after recovery"
                )
        db.rollback(txn)

    def audit(self, db: Database, deep: bool = False,
              expect_leaks: bool = False) -> EpisodeResult:
        """Invariants 2 and 3: the auditor's verdict, in every region."""
        violations = self.result.violations
        try:
            report = StoreAuditor(db).audit(deep=deep)
        except AuditError as exc:
            violations.append(f"audit failed: {exc}")
            return self.result
        self.result.report = report
        if report.missing or report.snapshot_missing:
            violations.append(
                f"MISSING objects after recovery: {len(report.missing)} "
                f"live, {len(report.snapshot_missing)} snapshot-only"
            )
        if report.corrupt or report.region_corrupt:
            violations.append(
                f"CORRUPT objects after recovery: {len(report.corrupt)} "
                f"primary, {len(report.region_corrupt)} regional"
            )
        if expect_leaks:
            if not report.leaked:
                violations.append(
                    "the auditor failed to flag the broken GC's leaked "
                    "objects"
                )
        elif report.leaked:
            violations.append(
                f"LEAKED objects did not drain to zero: {len(report.leaked)}"
            )
        # The regional classes stay empty unless the store is replicated.
        if report.region_missing:
            violations.append(
                f"regional data loss after heal: {len(report.region_missing)}"
            )
        if report.region_leaked or report.region_divergent:
            violations.append(
                "regions did not reconcile: "
                f"{len(report.region_leaked)} leaked, "
                f"{len(report.region_divergent)} divergent"
            )
        if report.staleness_violations:
            violations.append(
                f"bounded staleness broken: {len(report.staleness_violations)}"
            )
        return self.result


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
    ep = Episode("churn", crash_point_name, seed, arm_skip)
    db = build_engine(seed, config_overrides)
    if broken_gc:
        install_broken_gc(db)
        ep.after_restart = lambda: install_broken_gc(db)

    def probe(obj: str, page: int) -> "Optional[bytes]":
        """One page in its own transaction; None if it cannot be read."""
        txn = db.begin()
        try:
            return db.read_page(txn, obj, page)
        except Exception:
            return None
        finally:
            try:
                db.rollback(txn)
            except Exception:
                pass

    def commit_generation(obj: str, gen: int, pages: int = PAGES,
                          double_write: bool = False) -> None:
        if ep.attempt(db, lambda: ep.commit(db, obj, gen, pages,
                                            double_write)):
            return
        # The crash interrupted the commit: resolve whether it landed by
        # probing page 0 against both possible images.
        staged = _generation(obj, gen, seed, pages)
        got = probe(obj, 0)
        if got == staged[(obj, 0)]:
            for (__, p), data in staged.items():
                if p != 0 and probe(obj, p) != data:
                    ep.result.violations.append(
                        f"torn commit: {obj!r} gen {gen} page {p} does not "
                        "match the committed image"
                    )
            ep.expected.update(staged)
        elif got != ep.expected.get((obj, 0)):
            # Neither landed nor left the old generation in place.
            ep.result.violations.append(
                f"atomicity: {obj!r} gen {gen} page 0 matches neither the "
                "pre-commit nor the post-commit image"
            )

    def crash_and_restart() -> None:
        if not db.crashed:
            db.crash()
        ep.restart(db)

    def rollback_generation() -> None:
        txn = db.begin()
        for p in range(PAGES):
            db.write_page(txn, "t1", p, _payload("t1", p, 99, seed))
        db.rollback(txn)

    # --- pre-arm baseline: generation 0 is always fully committed ------ #
    db.create_object("t0")
    db.create_object("t1")
    commit_generation("t0", 0)
    commit_generation("t1", 0)

    with ep.armed():
        commit_generation("t0", 1, double_write=True)
        commit_generation("t1", 1)
        ep.attempt(db, lambda: db.create_object("extra"))
        # One wide transaction overflows the buffer: dirty eviction queues
        # OCM write-backs, which commit must upload (flush_for_commit).
        commit_generation("t0", 2, pages=WIDE_PAGES)
        ep.attempt(db, db.create_snapshot)
        # Supersede again so the retention FIFO has entries to reap.
        commit_generation("t0", 3)
        ep.attempt(db, rollback_generation)

        # Forced mid-episode crash: exercises replay, checkpoint, restart
        # GC and orphan polling while the armed point is still live.
        crash_and_restart()
        commit_generation("t1", 4)

        # Drain from a fresh restart: everything transient goes to zero.
        crash_and_restart()
        ep.retry(db, lambda: drain(db), "drain")

    ep.restart(db)
    ep.verify(db, ep.expected)
    return ep.audit(db, deep=deep, expect_leaks=broken_gc)


# ---------------------------------------------------------------------- #
# the multiplex episode (secondary restart GC)
# ---------------------------------------------------------------------- #

def run_multiplex_episode(
    crash_point_name: "Optional[str]" = None,
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Crash the coordinator mid restart-GC of a dead writer node."""
    ep = Episode("multiplex", crash_point_name, seed, arm_skip)
    mux = build_multiplex(seed)
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    coordinator.create_object("t0")
    ep.commit(writer, "t0", 0)

    with ep.armed():
        ep.upload_orphans(writer, 3, gen=1)
        writer.crash()
        ep.restart(writer)

    coordinator.txn_manager.collect_garbage()
    ep.verify(coordinator, ep.expected)
    return ep.audit(coordinator)


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

    ep = Episode("scale", crash_point_name, seed, arm_skip)
    mux = build_multiplex(seed)
    coordinator = mux.coordinator

    # Baseline, plus a warm coordinator OCM for pre-warm to donate from.
    coordinator.create_object("t0")
    ep.commit(mux.node("writer-1"), "t0", 0)
    txn = coordinator.begin()
    for p in range(PAGES):
        coordinator.read_page(txn, "t0", p)
    coordinator.rollback(txn)

    def retire_wounded(node: SecondaryNode, exc: SimulatedCrash) -> None:
        if node.node_id not in mux.nodes:
            # The crash hit after detach: the retire itself already
            # completed (flush + GC), nothing to clean up.
            ep.result.crashes += 1
            return
        ep.recover(node, exc)
        if not node.crashed:
            try:
                mux.retire_secondary(node.node_id)
            except SimulatedCrash as inner:
                retire_wounded(node, inner)

    def scale_cycle(gen: int) -> bool:
        """One provision -> prewarm -> serve -> retire cycle; True if it
        ran end to end without the armed point firing."""
        node = mux.add_secondary("writer")
        try:
            prewarm_secondary(node, coordinator.ocm, SCALE_PREWARM_BUDGET)
            ep.commit(node, "t0", gen)
            ep.upload_orphans(node, SCALE_ORPHANS, gen)
            mux.retire_secondary(node.node_id)
            return True
        except SimulatedCrash as exc:
            retire_wounded(node, exc)
            return False

    with ep.armed():
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            if scale_cycle(attempt + 1):
                break
        else:
            ep.result.violations.append("scale cycle did not converge")

    # Wounded nodes that could not be retired (restart non-convergence)
    # still get their keys reclaimed by coordinator-side GC.
    coordinator.txn_manager.collect_garbage()
    ep.verify(coordinator, ep.expected)
    return ep.audit(coordinator)


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
    ep = Episode("restore", crash_point_name, seed, arm_skip)
    db = build_engine(seed)
    db.create_object("t0")
    ep.commit(db, "t0", 0)
    rewound = dict(ep.expected)
    snapshot = db.create_snapshot()
    ep.commit(db, "t0", 1)

    with ep.armed():
        completed = ep.attempt(
            db, lambda: db.restore_snapshot(snapshot.snapshot_id)
        )

    ep.verify(db, rewound if completed else ep.expected)
    # Expire the snapshot, reap retention, collect the chain.
    drain(db)
    return ep.audit(db)


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
    ep = Episode("failover", crash_point_name, seed, arm_skip)
    mux = build_multiplex(seed, failover_overrides())
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    store = coordinator.object_store

    # Baseline on the original primary; replication trails behind it.
    coordinator.create_object("t0")
    ep.commit(writer, "t0", 0)

    with ep.armed():
        # Orphans land on the primary and queue for replication.
        ep.upload_orphans(writer, 3, gen=1)
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
        ep.retry(coordinator, lambda: mux.region_failover(to_region=target),
                 "region failover")

        # Restart GC reclaims the orphans on the *new* primary; the blind
        # deletes replicate as tombstones into the dead region's queue.
        ep.restart(writer)

        # Life goes on against the new primary.
        ep.commit(writer, "t0", 1)

    # Heal: ride past the outage end plus the staleness horizon, then
    # reconcile the healed region (idempotent drain).
    schedule = store.fault_schedule
    heal_at = (schedule.horizon if schedule is not None else mux.clock.now())
    mux.clock.advance_to(max(mux.clock.now(), heal_at) + REPLICATION_HORIZON + 1.0)
    store.pump(mux.clock.now())
    drain(coordinator)
    # GC's own deletes queue fresh tombstones; give them one more horizon
    # to propagate before requiring empty queues.
    mux.clock.advance(REPLICATION_HORIZON + 1.0)
    store.pump(mux.clock.now())
    if store.pending_count():
        ep.result.violations.append(
            f"replication queues did not drain after heal: "
            f"{store.pending_count()} entries pending"
        )

    # Every acknowledged commit survives on the new primary — zero
    # committed-data loss within the replication horizon — and every
    # region is audited: the healed region's orphan leaks all drained.
    ep.verify(coordinator, ep.expected)
    return ep.audit(coordinator)


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
    byte-identical through cold, *verified* reads — so a missed repair
    surfaces there too — and a deep audit finds zero CORRUPT copies in
    any region.
    """
    from repro.bench.scrub import damage_at_rest
    from repro.core.scrub import Scrubber

    ep = Episode("scrub", crash_point_name, seed, arm_skip)
    overrides = failover_overrides()
    overrides["verify_reads"] = True
    db = build_engine(seed, overrides)
    db.create_object("t0")
    for gen in range(2):
        ep.commit(db, "t0", gen)
        db.clock.advance(0.5)

    # Let replication land every version so each region can repair the
    # other, then rot a few primary copies in place.
    store = db.object_store
    db.clock.advance(REPLICATION_HORIZON + 1.0)
    store.pump(db.clock.now())
    if not damage_at_rest(store, SCRUB_DAMAGED_OBJECTS, flips=2):
        ep.result.violations.append("no stored objects available to damage")
        return ep.result

    def scrub() -> None:
        report = Scrubber(db).run()
        if report.quarantined:
            ep.result.violations.append(
                f"scrub quarantined {len(report.quarantined)} copies a "
                "healthy replica should have repaired"
            )

    with ep.armed():
        ep.retry(db, scrub, "scrub")

    ep.verify(db, ep.expected)
    return ep.audit(db, deep=True)


# ---------------------------------------------------------------------- #
# exploration drivers
# ---------------------------------------------------------------------- #

# Crash-point prefix -> the episode that traverses it, first match wins;
# every other point is a churn point.
EPISODE_ROUTES: "List[Tuple[Tuple[str, ...], Callable[..., EpisodeResult]]]" = [
    (("multiplex.failover.", "replication."), run_failover_episode),
    (("autoscale.", "multiplex.retire."), run_scale_episode),
    (("multiplex.",), run_multiplex_episode),
    (("engine.restore.",), run_restore_episode),
    (("scrub.",), run_scrub_episode),
]


def run_episode(
    crash_point_name: "Optional[str]",
    seed: int = 0,
    arm_skip: int = 0,
) -> EpisodeResult:
    """Route a crash point to the episode that can actually traverse it.

    An episode armed without a skip that never reaches its point is a
    violation: a sweep reporting "fired 0 ... ok" has silently shrunk.
    """
    result = _route_episode(crash_point_name, seed, arm_skip)
    if crash_point_name is not None and not arm_skip and not result.fired:
        result.violations.append(
            f"crash point {crash_point_name!r} never fired: its episode "
            "no longer traverses it"
        )
    return result


def _route_episode(crash_point_name: "Optional[str]", seed: int,
                   arm_skip: int) -> EpisodeResult:
    for prefixes, builder in EPISODE_ROUTES:
        if crash_point_name is not None and crash_point_name.startswith(
                prefixes):
            return builder(crash_point_name, seed=seed, arm_skip=arm_skip)
    return run_churn_episode(crash_point_name, seed=seed, arm_skip=arm_skip)


def explore_all_points(seed: int = 0) -> "List[EpisodeResult]":
    """One episode per registered crash point, in sorted name order."""
    return [run_episode(name, seed=seed) for name in registered_points()]
