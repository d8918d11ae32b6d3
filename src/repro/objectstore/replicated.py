"""Multi-region replication over per-region simulated object stores.

The paper stores the database behind one object-store endpoint; real
deployments survive region loss by replicating across regions (the
availability posture Taurus argues for).  :class:`ReplicatedObjectStore`
fronts N per-region :class:`~repro.objectstore.s3sim.SimulatedObjectStore`
instances with the asymmetric-durability contract of managed cross-region
replication:

- **synchronous primary writes** — every write/delete goes to the primary
  region and is acknowledged on the primary's timeline, exactly as today;
- **asynchronous secondary replication** — on ack, the operation is
  captured into a durable per-region replication queue and applied to each
  secondary after a configurable lag drawn on the virtual clock.  The
  queue survives region outages and primary failover, so RPO for
  *acknowledged* writes is zero: promoting a secondary first drains its
  queue;
- **bounded staleness** — every queued entry's apply time is clamped to
  ``op_time + staleness_horizon``; a ThrottleStorm on the replication
  queue stretches lag but never past the horizon.  The single documented
  exception is a :class:`~repro.objectstore.faults.RegionOutage` on the
  *target* region: an unreachable region cannot converge, so its entries
  defer to the outage end and are reported as benign pending by the
  auditor rather than as staleness violations.

Reads and the whole timed API are served by the current primary, so the
wrapper duck-types as a plain store for the resilient client, the OCM and
the auditor.  Replication applies bypass the secondary's billing/RNG
request path on purpose: they model the provider's internal replication
fabric, not client traffic, and must not perturb the deterministic
request streams of the region they land in.  Last-writer-wins ordering is
preserved by carrying the primary *operation time* into each applied
version, which is what lets a restart-GC tombstone fence out a healed
region's in-flight orphan (DESIGN.md §12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checksum import crc32c
from repro.objectstore.consistency import VersionedObject
from repro.objectstore.faults import (
    FaultSchedule,
    NO_FAULT,
    OutageWindow,
)
from repro.objectstore.s3sim import SimulatedObjectStore, run_and_advance
from repro.sim.clock import VirtualClock
from repro.sim.crashpoints import crash_point, register_crash_point
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.sim.rng import DeterministicRng

register_crash_point(
    "replication.promote.mid_drain",
    "Failover promotion crashed between applying a queued entry to the "
    "new primary and removing it from the replication queue",
)


@dataclass(frozen=True)
class ReplicationConfig:
    """Region topology and lag model for a :class:`ReplicatedObjectStore`.

    ``regions[0]`` is the initial primary.  ``mean_lag_seconds`` is the
    mean of the exponential replication lag applied per secondary write;
    ``region_lags`` overrides it per region (tuple of pairs, keeping the
    dataclass hashable/frozen).  ``staleness_horizon`` is the bounded-
    staleness guarantee: no queued entry may apply later than
    ``op_time + staleness_horizon`` unless the target region is in outage.
    """

    regions: Tuple[str, ...] = ("us-east-1", "us-west-2")
    mean_lag_seconds: float = 0.5
    staleness_horizon: float = 30.0
    region_lags: "Optional[Tuple[Tuple[str, float], ...]]" = None

    def __post_init__(self) -> None:
        if len(self.regions) < 2:
            raise ValueError("replication needs at least two regions")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError(f"duplicate regions in {self.regions!r}")
        if not 0 < self.staleness_horizon < math.inf:
            raise ValueError(
                "staleness horizon must be positive and finite, "
                f"got {self.staleness_horizon!r}"
            )
        if not 0 <= self.mean_lag_seconds < math.inf:
            raise ValueError(
                "mean lag must be non-negative and finite, "
                f"got {self.mean_lag_seconds!r}"
            )
        for region, lag in self.region_lags or ():
            if region not in self.regions:
                raise ValueError(f"lag override for unknown region {region!r}")
            if not 0 <= lag < math.inf:
                raise ValueError(
                    f"lag override must be non-negative and finite, got {lag!r}"
                )

    def lag_for(self, region: str) -> float:
        for name, lag in self.region_lags or ():
            if name == region:
                return lag
        return self.mean_lag_seconds


@dataclass
class ReplicationEntry:
    """One queued operation awaiting apply on a secondary region.

    ``data is None`` is a tombstone.  ``deferred`` marks an entry whose
    apply was pushed past the staleness horizon by an outage on the
    target region (the audited exception to bounded staleness);
    ``stretched`` marks a one-shot ThrottleStorm lag stretch so repeated
    pumps stay idempotent.
    """

    key: str
    data: "Optional[bytes]"
    op_time: float
    enqueued_at: float
    apply_at: float
    deferred: bool = False
    stretched: bool = False


class StalenessViolation(RuntimeError):
    """A queued replication entry outlived the staleness horizon."""


class ReplicatedObjectStore:
    """N per-region stores behind the primary's timed/plain store API."""

    def __init__(
        self,
        config: ReplicationConfig,
        primary: SimulatedObjectStore,
        secondaries: "Dict[str, SimulatedObjectStore]",
        rng: "Optional[DeterministicRng]" = None,
    ) -> None:
        if set(secondaries) != set(config.regions[1:]):
            raise ValueError(
                f"secondaries {sorted(secondaries)} do not match "
                f"config regions {config.regions[1:]!r}"
            )
        self.config = config
        self.primary_region = config.regions[0]
        primary.region = self.primary_region
        for region, store in secondaries.items():
            store.region = region
        self._stores: "Dict[str, SimulatedObjectStore]" = {
            self.primary_region: primary, **secondaries
        }
        # Every region keeps a queue; the current primary's is always
        # empty (its writes are synchronous).  Keyed by object key: under
        # last-writer-wins only the newest queued operation per key
        # matters, so an overwrite replaces — and a tombstone cancels —
        # any older queued put for the same key.
        self._queues: "Dict[str, Dict[str, ReplicationEntry]]" = {
            region: {} for region in config.regions
        }
        self._rng = rng or DeterministicRng(0, "replication")
        self._lag_rngs = {
            region: self._rng.substream(f"lag/{region}")
            for region in config.regions
        }
        self.replication_metrics = MetricsRegistry()
        self._shared_schedule: "Optional[FaultSchedule]" = None
        for store in self._stores.values():
            if store.fault_schedule is not None:
                self._shared_schedule = store.fault_schedule
        if self._shared_schedule is not None:
            for store in self._stores.values():
                store.fault_schedule = self._shared_schedule

    # ------------------------------------------------------------------ #
    # region topology
    # ------------------------------------------------------------------ #

    @property
    def regions(self) -> "Tuple[str, ...]":
        return self.config.regions

    @property
    def primary(self) -> SimulatedObjectStore:
        return self._stores[self.primary_region]

    def store_for(self, region: str) -> SimulatedObjectStore:
        return self._stores[region]

    def secondary_regions(self) -> "List[str]":
        return [r for r in self.config.regions if r != self.primary_region]

    # The wrapper duck-types as the primary store for the client, the
    # engine and the auditor.

    @property
    def clock(self) -> VirtualClock:
        return self.primary.clock

    @property
    def metrics(self) -> MetricsRegistry:
        """Request metrics of the store callers talk to: the primary."""
        return self.primary.metrics

    @property
    def tracer(self):
        return self.primary.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        for store in self._stores.values():
            store.tracer = tracer

    @property
    def fault_schedule(self) -> "Optional[FaultSchedule]":
        return self._shared_schedule

    def ensure_fault_schedule(self) -> FaultSchedule:
        """The shared injected schedule, creating (and sharing) it lazily."""
        if self._shared_schedule is None:
            self._shared_schedule = FaultSchedule(name="injected")
            for store in self._stores.values():
                store.fault_schedule = self._shared_schedule
        return self._shared_schedule

    # ------------------------------------------------------------------ #
    # replication pump
    # ------------------------------------------------------------------ #

    def _region_decision(self, region: str, key: str,
                         data: "Optional[bytes]", when: float):
        if self._shared_schedule is None:
            return NO_FAULT
        op = "put" if data is not None else "delete"
        return self._shared_schedule.decide(op, key, None, when, region)

    def _outage_end(self, region: str, key: str, when: float) -> float:
        """Latest end of any outage covering ``region`` at ``when``."""
        end = when
        if self._shared_schedule is None:
            return end
        for event in self._shared_schedule.events:
            if isinstance(event, OutageWindow) and event.matches(
                "put", key, None, when, region
            ):
                end = max(end, event.end)
        return end

    def _apply(self, region: str, entry: ReplicationEntry,
               apply_time: float) -> None:
        """Land one queued entry on a region, bypassing its request path.

        Models the provider's replication fabric: no billing, no token
        buckets, no RNG draws — the target region's deterministic client
        request streams stay untouched.  Carrying the primary's op_time
        preserves last-writer-wins across regions.
        """
        store = self._stores[region]
        versioned = store._objects.setdefault(entry.key, VersionedObject())
        versioned.add_version(apply_time, entry.data, op_time=entry.op_time)
        if entry.data is not None:
            # The queue captured the caller's bytes at ack, so this IS the
            # primary's checksum: applies preserve it verbatim even when
            # the primary's own at-rest copy was damaged by a put-window
            # corruption event.
            store.record_checksum(entry.key, entry.op_time,
                                  crc32c(entry.data))
        self.replication_metrics.counter("replication_applied").increment()
        # Outage-deferred applies are the documented exception to bounded
        # staleness; keeping their lag in a separate histogram lets the
        # DR drill report the bound-governed worst case honestly.
        name = ("replication_lag_deferred" if entry.deferred
                else "replication_lag")
        self.replication_metrics.histogram(name).observe(
            max(0.0, apply_time - entry.op_time)
        )

    def pump(self, now: float) -> int:
        """Apply every queued entry due by ``now``; return applied count.

        Called before every store operation and explicitly by heal-time
        reconciliation.  Deterministic and idempotent: entries apply in
        key order, outage-deferred entries move to the outage end once,
        ThrottleStorm stretches an entry's lag at most once and never past
        the staleness horizon.
        """
        applied = 0
        for region in self.config.regions:
            if region == self.primary_region:
                continue
            queue = self._queues[region]
            for key in sorted(queue):
                entry = queue[key]
                if entry.apply_at > now:
                    continue
                decision = self._region_decision(
                    region, key, entry.data, entry.apply_at
                )
                if decision.outage:
                    entry.apply_at = self._outage_end(
                        region, key, entry.apply_at
                    )
                    entry.deferred = True
                    self.replication_metrics.counter(
                        "replication_deferred_outage"
                    ).increment()
                    if entry.apply_at > now:
                        continue
                if decision.throttle_factor < 1.0 and not entry.stretched:
                    lag = entry.apply_at - entry.enqueued_at
                    entry.apply_at = min(
                        entry.enqueued_at + lag / decision.throttle_factor,
                        entry.op_time + self.config.staleness_horizon,
                    )
                    entry.stretched = True
                    self.replication_metrics.counter(
                        "replication_throttle_stretched"
                    ).increment()
                    if entry.apply_at > now:
                        continue
                self._apply(region, entry, entry.apply_at)
                del queue[key]
                applied += 1
        return applied

    def _enqueue(self, key: str, data: "Optional[bytes]",
                 op_time: float) -> None:
        for region in self.config.regions:
            if region == self.primary_region:
                continue
            mean = self.config.lag_for(region)
            lag = 0.0
            if mean > 0:
                lag = min(
                    self._lag_rngs[region].expovariate(1.0 / mean),
                    self.config.staleness_horizon,
                )
            queue = self._queues[region]
            stale = queue.get(key)
            if stale is not None and data is None and stale.data is not None:
                # Delete propagation cancels the queued put outright (the
                # delete-resurrection family of PR 2, across regions).
                self.replication_metrics.counter(
                    "replication_cancelled_puts"
                ).increment()
            queue[key] = ReplicationEntry(
                key=key,
                data=None if data is None else bytes(data),
                op_time=op_time,
                enqueued_at=op_time,
                apply_at=op_time + lag,
            )
            self.replication_metrics.counter("replication_enqueued").increment()

    # ------------------------------------------------------------------ #
    # failover / reconciliation
    # ------------------------------------------------------------------ #

    def promote(self, region: str, now: float) -> int:
        """Make ``region`` the primary, draining its queue first.

        Apply-then-remove per entry, so a crash mid-drain
        (``replication.promote.mid_drain``) re-applies at most one entry
        on retry — idempotent under last-writer-wins, since the re-applied
        version carries the same op_time.  Promoting the current primary
        is a no-op (crash-retry safe).  Returns the number of drained
        entries.
        """
        if region == self.primary_region:
            return 0
        if region not in self._stores:
            raise ValueError(f"unknown region {region!r}")
        queue = self._queues[region]
        drained = 0
        for key in sorted(queue):
            entry = queue[key]
            self._apply(region, entry, apply_time=now)
            crash_point("replication.promote.mid_drain")
            del queue[key]
            drained += 1
        self.primary_region = region
        self.replication_metrics.counter("replication_promotions").increment()
        return drained

    # ------------------------------------------------------------------ #
    # read-repair (verified-read fallback and the scrubber's fix path)
    # ------------------------------------------------------------------ #

    def _latest_state(self, region: str, key: str):
        """``(op_time, data, clean)`` of a region's latest copy, or None."""
        store = self._stores[region]
        versioned = store._objects.get(key)
        idx = store._latest_version_index(versioned)
        if idx is None:
            return None
        op_time, __, data = versioned._versions[idx]
        if data is None:
            return None
        clean = crc32c(data) == store._checksum_for(key, op_time, data)
        return op_time, data, clean

    def read_repair(self, key: str, now: float) -> int:
        """Overwrite damaged at-rest copies of ``key`` from clean ones.

        A copy is only repaired from a source holding the *same version*
        (matching op_time) — either another region's clean bytes or a
        still-queued replication entry (clean by construction, captured
        at ack).  Idempotent: rewriting clean bytes over clean bytes is a
        no-op, so a crash between repair and re-verify is safe to retry.
        Returns the number of repaired copies; unrepairable damage bumps
        ``read_repair_failed`` and is left for quarantine.
        """
        self.pump(now)
        states = {
            region: self._latest_state(region, key)
            for region in self.config.regions
        }
        repaired = 0
        for region in self.config.regions:
            state = states[region]
            if state is None or state[2]:
                continue
            op_time = state[0]
            source: "Optional[bytes]" = None
            for other in self.config.regions:
                other_state = states[other]
                if (
                    other is not region and other_state is not None
                    and other_state[2] and other_state[0] == op_time
                ):
                    source = other_state[1]
                    break
            if source is None:
                for queue_region in self.config.regions:
                    entry = self._queues[queue_region].get(key)
                    if (
                        entry is not None and entry.data is not None
                        and entry.op_time == op_time
                    ):
                        source = entry.data
                        break
            if source is None:
                self.replication_metrics.counter(
                    "read_repair_failed"
                ).increment()
                continue
            self._stores[region].overwrite_latest(key, source)
            states[region] = (op_time, source, True)
            repaired += 1
            self.replication_metrics.counter("read_repairs").increment()
            self.replication_metrics.counter(
                f"read_repairs:{region}"
            ).increment()
        return repaired

    def verify_at_rest(self, key: str) -> "Optional[bool]":
        return self.primary.verify_at_rest(key)

    def inject_damage(self, key: str, flips: int = 1) -> bool:
        return self.primary.inject_damage(key, flips)

    def pending_for(self, region: str) -> "List[ReplicationEntry]":
        return [self._queues[region][k] for k in sorted(self._queues[region])]

    def pending_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def check_staleness(self, now: float) -> "List[ReplicationEntry]":
        """Entries violating bounded staleness at ``now`` (after a pump).

        Outage-deferred entries are exempt: an unreachable region cannot
        converge, and the auditor reports them as benign pending instead.
        """
        self.pump(now)
        violations: "List[ReplicationEntry]" = []
        for region in self.config.regions:
            for entry in self._queues[region].values():
                if entry.deferred:
                    continue
                deadline = entry.op_time + self.config.staleness_horizon
                if now > deadline and entry.apply_at > now:
                    violations.append(entry)
        return violations

    def assert_bounded_staleness(self, now: float) -> None:
        violations = self.check_staleness(now)
        if violations:
            worst = violations[0]
            raise StalenessViolation(
                f"{len(violations)} queued entries exceed the "
                f"{self.config.staleness_horizon}s staleness horizon at "
                f"t={now} (first: {worst.key!r} op_time={worst.op_time})"
            )

    # ------------------------------------------------------------------ #
    # timed store API: pump, delegate to the primary, enqueue on ack
    # ------------------------------------------------------------------ #

    def put_range_at(self, items: "Sequence[Tuple[str, bytes]]", now: float,
                     bandwidth: "Optional[Pipe]" = None,
                     node: "Optional[str]" = None) -> float:
        self.pump(now)
        done = self.primary.put_range_at(items, now, bandwidth, node)
        for key, data in items:
            self._enqueue(key, data, op_time=done)
        return done

    def get_range_at(self, keys: "Sequence[str]", now: float,
                     bandwidth: "Optional[Pipe]" = None,
                     node: "Optional[str]" = None):
        self.pump(now)
        return self.primary.get_range_at(keys, now, bandwidth, node)

    def delete_at(self, key: str, now: float,
                  node: "Optional[str]" = None) -> float:
        self.pump(now)
        done = self.primary.delete_at(key, now, node)
        self._enqueue(key, None, op_time=done)
        return done

    def exists_at(self, key: str, now: float,
                  node: "Optional[str]" = None):
        self.pump(now)
        return self.primary.exists_at(key, now, node)

    # ------------------------------------------------------------------ #
    # plain store API (advances the shared clock, like the primary's)
    # ------------------------------------------------------------------ #

    def put(self, key: str, data: bytes) -> None:
        run_and_advance(self.clock, self.put_range_at, [(key, data)])

    def delete(self, key: str) -> None:
        run_and_advance(self.clock, self.delete_at, key)

    # ------------------------------------------------------------------ #
    # introspection (auditor, fencing, tests)
    # ------------------------------------------------------------------ #

    def stored_bytes(self) -> int:
        return self.primary.stored_bytes()

    def object_count(self) -> int:
        return self.primary.object_count()

    def latest_data(self, key: str) -> "Optional[bytes]":
        return self.primary.latest_data(key)

    def all_keys(self, prefix: str = "") -> "List[str]":
        return self.primary.all_keys(prefix)

    def throttled_requests(self) -> int:
        return self.primary.throttled_requests()

    def write_horizon(self) -> float:
        """Latest settle time across every region AND the queues.

        The fence that makes restart-GC blind deletes (and failover
        promotions) unambiguous last writers must cover in-flight
        replication too: a queued entry is an accepted write that has not
        settled on its target region yet.
        """
        horizon = max(
            store.write_horizon() for store in self._stores.values()
        )
        for queue in self._queues.values():
            for entry in queue.values():
                horizon = max(horizon, entry.op_time, entry.apply_at)
        return horizon


def build_replicated_store(
    config: ReplicationConfig,
    primary: SimulatedObjectStore,
    rng: DeterministicRng,
) -> ReplicatedObjectStore:
    """Wrap an engine-built primary store with simulated secondaries.

    Secondaries share the primary's profile, clock, meter and fault
    schedule but draw from independent RNG substreams (``s3/{region}``),
    so attaching replication never perturbs the primary's deterministic
    request streams — the single-region golden regression stays
    byte-identical with replication off *and* the primary's own draws are
    unchanged with it on.  Secondaries get no bandwidth pipe of their
    own: client traffic never reaches them, and replication applies
    bypass the request path entirely.
    """
    secondaries = {
        region: SimulatedObjectStore(
            primary.profile,
            clock=primary.clock,
            rng=rng.substream(f"s3/{region}"),
            meter=None,
            fault_schedule=primary.fault_schedule,
            region=region,
        )
        for region in config.regions[1:]
    }
    return ReplicatedObjectStore(
        config, primary, secondaries, rng=rng.substream("replication")
    )
