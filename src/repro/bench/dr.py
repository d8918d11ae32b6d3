"""The disaster-recovery drill: outage -> failover -> heal -> fsck -> restore.

One deterministic end-to-end scenario shared by the ``repro dr`` CLI
command and the failover tests.  A two-region multiplex commits data and
takes a snapshot, the primary region drops off the map, the coordinator
fails over to the surviving region, business continues, the dead region
heals and reconciles, the auditor checks every region, and finally the
pre-outage snapshot is restored *on the new primary* — a cross-region
point-in-time restore.

The drill measures the two numbers DESIGN.md §12 defines:

- **RTO** — virtual seconds from the start of the primary-region outage
  to the first successful cold-cache query on the new primary.  The
  dominant term is the failover fence (waiting out the write horizon so
  the old primary's in-flight PUTs cannot win last-writer-wins races).
- **RPO** — zero for acknowledged writes by construction: the replication
  queue is durable and promotion drains it before the primary flips.  For
  *replicated visibility* the guarantee is the staleness horizon; the
  drill reports the worst replication lag actually observed as evidence
  the bound holds.

Everything runs on the virtual clock, so the reported seconds are exact
and reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.crash_explorer import base_config
from repro.core.audit import AuditReport, StoreAuditor
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.objectstore.replicated import ReplicationConfig

PAYLOAD_BYTES = 1024
BUFFER_FRAMES = 16


@dataclass(frozen=True)
class DrillConfig:
    """Knobs for one DR drill run."""

    seed: int = 0
    regions: "Tuple[str, ...]" = ("region-a", "region-b")
    mean_lag_seconds: float = 0.5
    staleness_horizon: float = 30.0
    outage_seconds: float = 60.0
    pages: int = 4
    # Long enough that the pre-outage snapshot survives the heal phase;
    # the drill restores it at the end, so it must not be reaped.
    retention_seconds: float = 3600.0


@dataclass
class DrillResult:
    """Outcome and measurements of one DR drill."""

    seed: int
    mean_lag_seconds: float
    staleness_horizon: float
    failover_region: str = ""
    # (virtual clock, phase, description) — the CLI narrates these.
    events: "List[Tuple[float, str, str]]" = field(default_factory=list)
    failover_seconds: float = 0.0
    rto_seconds: float = 0.0
    rpo_acknowledged_seconds: float = 0.0
    rpo_bound_seconds: float = 0.0
    max_observed_lag_seconds: float = 0.0
    mean_observed_lag_seconds: float = 0.0
    replicated_applies: int = 0
    drained_entries: int = 0
    audit_ok: bool = False
    restore_ok: bool = False
    violations: "List[str]" = field(default_factory=list)
    report: "Optional[AuditReport]" = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> "Dict[str, object]":
        return {
            "seed": self.seed,
            "mean_lag_seconds": self.mean_lag_seconds,
            "staleness_horizon": self.staleness_horizon,
            "failover_region": self.failover_region,
            "failover_seconds": round(self.failover_seconds, 6),
            "rto_seconds": round(self.rto_seconds, 6),
            "rpo_acknowledged_seconds": self.rpo_acknowledged_seconds,
            "rpo_bound_seconds": self.rpo_bound_seconds,
            "max_observed_lag_seconds": round(
                self.max_observed_lag_seconds, 6
            ),
            "mean_observed_lag_seconds": round(
                self.mean_observed_lag_seconds, 6
            ),
            "replicated_applies": self.replicated_applies,
            "drained_entries": self.drained_entries,
            "audit_ok": self.audit_ok,
            "restore_ok": self.restore_ok,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def _payload(obj: str, page: int, gen: int, seed: int) -> bytes:
    header = f"dr:{obj}:{page}:{gen}:{seed}:".encode()
    body = bytes(
        (page * 113 + gen * 29 + seed * 7 + i * 13) % 251
        for i in range(PAYLOAD_BYTES - len(header))
    )
    return header + body


def run_dr_drill(config: "Optional[DrillConfig]" = None) -> DrillResult:
    """Run the full DR workflow once and measure RTO/RPO."""
    cfg = config or DrillConfig()
    result = DrillResult(
        seed=cfg.seed,
        mean_lag_seconds=cfg.mean_lag_seconds,
        staleness_horizon=cfg.staleness_horizon,
        rpo_bound_seconds=cfg.staleness_horizon,
    )
    mux = Multiplex(
        base_config(cfg.seed, dict(
            replication=ReplicationConfig(
                regions=cfg.regions,
                mean_lag_seconds=cfg.mean_lag_seconds,
                staleness_horizon=cfg.staleness_horizon,
            ),
            retention_seconds=cfg.retention_seconds,
        )),
        MultiplexConfig(
            writers=1,
            secondary_buffer_bytes=BUFFER_FRAMES * PAYLOAD_BYTES,
            secondary_ocm_bytes=4 * 1024 * 1024,
        ),
    )
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    store = coordinator.object_store
    clock = mux.clock

    def note(phase: str, description: str) -> None:
        result.events.append((round(clock.now(), 3), phase, description))

    def commit_generation(gen: int) -> "Dict[int, bytes]":
        staged = {p: _payload("t0", p, gen, cfg.seed)
                  for p in range(cfg.pages)}
        txn = writer.begin()
        for p, data in staged.items():
            writer.write_page(txn, "t0", p, data)
        writer.commit(txn)
        return staged

    def probe(page: int) -> "Optional[bytes]":
        txn = coordinator.begin()
        try:
            data: "Optional[bytes]" = coordinator.read_page(txn, "t0", page)
        except Exception:
            data = None
        try:
            coordinator.rollback(txn)
        except Exception:
            pass
        return data

    # --- steady state on the original primary -------------------------- #
    coordinator.create_object("t0")
    commit_generation(0)
    snapshot = coordinator.create_snapshot()
    note("steady", f"snapshot {snapshot.snapshot_id} taken on "
                   f"primary {cfg.regions[0]}")
    gen1 = commit_generation(1)
    note("steady", f"generation 1 committed ({cfg.pages} pages, "
                   "acknowledged on the primary)")

    # --- the primary region goes away ---------------------------------- #
    outage_start = clock.now()
    mux.inject_region_outage(
        cfg.regions[0], (outage_start, outage_start + cfg.outage_seconds)
    )
    clock.advance(0.001)
    note("outage", f"region {cfg.regions[0]} unreachable for "
                   f"{cfg.outage_seconds:g}s")

    # --- failover ------------------------------------------------------- #
    drained_before = coordinator.metrics.counter(
        "region_failover_drained_entries"
    ).value
    new_primary = mux.region_failover()
    result.failover_region = new_primary
    result.drained_entries = int(
        coordinator.metrics.counter(
            "region_failover_drained_entries"
        ).value - drained_before
    )
    result.failover_seconds = clock.now() - outage_start
    note("failover", f"promoted {new_primary} after draining "
                     f"{result.drained_entries} queued entries")

    # --- RTO: first successful cold-cache query on the new primary ------ #
    coordinator.node.invalidate_caches()
    if coordinator.ocm is not None:
        coordinator.ocm.invalidate_all()
    for attempt in range(64):
        if probe(0) == gen1[0]:
            break
        clock.advance(0.25)
    else:
        result.violations.append(
            "no successful query on the new primary within the probe budget"
        )
    result.rto_seconds = clock.now() - outage_start
    note("failover", f"first successful query on {new_primary} "
                     f"(RTO {result.rto_seconds:.3f}s after outage start)")

    # Business continues against the new primary.
    gen2 = commit_generation(2)
    note("failover", "generation 2 committed against the new primary")

    # --- heal: the dead region comes back and reconciles ----------------- #
    schedule = store.fault_schedule
    heal_at = schedule.horizon if schedule is not None else clock.now()
    clock.advance_to(max(clock.now(), heal_at) + cfg.staleness_horizon + 1.0)
    store.pump(clock.now())
    coordinator.txn_manager.collect_garbage()
    # GC's own deletes queue fresh tombstones; give them one more horizon
    # to propagate before requiring empty queues.
    clock.advance(cfg.staleness_horizon + 1.0)
    store.pump(clock.now())
    if store.pending_count():
        result.violations.append(
            f"replication queues did not drain after heal: "
            f"{store.pending_count()} entries pending"
        )
    note("heal", f"region {cfg.regions[0]} healed and reconciled "
                 f"({store.pending_count()} entries pending)")

    # --- RPO evidence ---------------------------------------------------- #
    stale = store.check_staleness(clock.now())
    if stale:
        result.violations.append(
            f"bounded staleness broken: {len(stale)} entries past the "
            f"{cfg.staleness_horizon:g}s horizon"
        )
    lag = store.replication_metrics.histogram("replication_lag")
    if lag.count:
        result.max_observed_lag_seconds = max(lag.values)
        result.mean_observed_lag_seconds = lag.mean
        if result.max_observed_lag_seconds > cfg.staleness_horizon + 1e-9:
            result.violations.append(
                f"observed replication lag "
                f"{result.max_observed_lag_seconds:.3f}s exceeds the "
                f"{cfg.staleness_horizon:g}s staleness horizon"
            )
    result.replicated_applies = int(
        store.replication_metrics.counter("replication_applied").value
    )
    deferred = store.replication_metrics.histogram(
        "replication_lag_deferred"
    )
    note("rpo", f"worst bound-governed replication lag "
                f"{result.max_observed_lag_seconds:.3f}s "
                f"(bound {cfg.staleness_horizon:g}s, "
                f"{deferred.count} outage-deferred applies exempt); "
                "acknowledged-write RPO 0s by queue drain")

    # --- fsck across every region ---------------------------------------- #
    report = StoreAuditor(coordinator).audit()
    result.report = report
    result.audit_ok = report.ok()
    if not report.ok():
        result.violations.append(
            f"fsck NOT clean: {len(report.missing)} missing, "
            f"{len(report.leaked)} leaked, "
            f"{len(report.region_missing)} region-missing, "
            f"{len(report.region_leaked)} region-leaked, "
            f"{len(report.region_divergent)} divergent, "
            f"{len(report.staleness_violations)} stale"
        )
    note("fsck", f"audited {len(report.regions_audited) + 1} regions: "
                 f"{'clean' if report.ok() else 'NOT clean'}")

    # --- cross-region point-in-time restore ------------------------------ #
    coordinator.restore_snapshot(snapshot.snapshot_id)
    gen0 = {p: _payload("t0", p, 0, cfg.seed) for p in range(cfg.pages)}
    coordinator.node.invalidate_caches()
    if coordinator.ocm is not None:
        coordinator.ocm.invalidate_all()
    result.restore_ok = all(probe(p) == gen0[p] for p in gen0)
    if not result.restore_ok:
        result.violations.append(
            "cross-region restore did not rewind to the snapshot image"
        )
    elif any(probe(p) == gen2.get(p) for p in gen0):
        result.restore_ok = False
        result.violations.append(
            "cross-region restore left post-snapshot data visible"
        )
    note("restore", f"snapshot {snapshot.snapshot_id} restored on "
                    f"{new_primary}: "
                    f"{'ok' if result.restore_ok else 'FAILED'}")
    return result
