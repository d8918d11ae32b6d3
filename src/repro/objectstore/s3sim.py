"""Deterministic S3/Azure-Blob simulator with timing, throttling and cost.

The simulator layers the behaviours the paper's design responds to on top of
an in-memory version history:

- every write/read is charged per-request latency plus transfer time through
  a (possibly shared) bandwidth :class:`~repro.sim.pipes.Pipe` — typically
  the instance NIC, so S3 traffic competes with other network traffic;
- request rates are throttled *per key prefix* with token buckets, mirroring
  AWS's documented per-prefix request limits;
- writes (and deletes) become visible after a lag drawn from a
  :class:`~repro.objectstore.consistency.ConsistencyModel`, so reads may
  observe "no such key" (scenario 3 of Section 3) or stale data
  (scenario 2, only when a key is overwritten);
- PUT/GET/DELETE counts are recorded against a
  :class:`~repro.costs.meter.CostMeter`;
- every accepted PUT records the CRC-32C of the *intended* payload (the
  store's ETag) keyed by version op-time; scheduled corruption events
  (:class:`~repro.objectstore.faults.BitRot` and friends) damage the
  stored or served bytes *without* touching that record, so verifying
  readers (every GET result carries the expected checksum), the background
  scrubber and ``repro fsck --deep`` can detect — and under replication
  repair — the damage.

Two APIs are exposed: the *timed* API — one batch-first method per verb
(``put_range_at``/``get_range_at``/``delete_at``/``exists_at``; a single
request is a batch of one) — returns virtual completion times and never
touches the clock — the engine's I/O scheduler uses it to model parallel
requests — and the plain put/get/delete/exists/list API which advances the
shared clock to each operation's completion (convenient in tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.costs.meter import CostMeter
from repro.objectstore.consistency import (
    ConsistencyModel,
    EVENTUAL,
    VersionedObject,
)
from repro.objectstore.errors import NoSuchKeyError
from repro.objectstore.faults import FaultDecision, FaultSchedule, NO_FAULT
from repro.sim.clock import VirtualClock
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe, TokenBucket
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import NULL_TRACER
from repro.checksum import crc32c


@dataclass(frozen=True)
class ObjectStoreProfile:
    """Performance/pricing profile of one object store service."""

    name: str
    put_latency: float = 0.030
    get_latency: float = 0.015
    delete_latency: float = 0.010
    latency_jitter: float = 0.10
    per_prefix_put_rate: float = 3500.0
    per_prefix_get_rate: float = 5500.0
    consistency: ConsistencyModel = EVENTUAL
    transient_failure_probability: float = 0.001
    volume: str = "s3"  # pricing key in the PriceTable
    # Aggregate service bandwidth when no shared pipe (e.g. a NIC) is given.
    default_bandwidth: float = 100e9


S3_PROFILE = ObjectStoreProfile(name="s3")

# Azure Blob Storage: the paper's other supported provider.  Broadly
# similar trade-offs to S3; slightly different latencies and pricing.
AZURE_BLOB_PROFILE = ObjectStoreProfile(
    name="azure-blob",
    put_latency=0.035,
    get_latency=0.018,
    delete_latency=0.012,
    per_prefix_put_rate=2000.0,
    per_prefix_get_rate=4000.0,
    volume="azure-blob",
)


class TransientRequestError(Exception):
    """A retryable request failure (HTTP 500/503-style).

    ``kind`` distinguishes the failure source: ``"transient"`` for the
    profile's uniform background rate, ``"outage"``/``"storm"`` for
    scheduled fault events.  ``failed_at`` is the virtual time the failed
    attempt completed (it was still billed and still took time).
    """

    def __init__(self, key: str, kind: str = "transient",
                 failed_at: float = 0.0) -> None:
        super().__init__(f"{kind} failure on key {key!r}")
        self.key = key
        self.kind = kind
        self.failed_at = failed_at


# verb -> (token-bucket class, profile latency, billing class, stream of
# the background failure draw).  Delete/HEAD failures draw from their own
# substream so they never perturb the put/get draws of an existing run.
_VERBS = {
    "put": ("put", "put_latency", "puts", "_failure_rng"),
    "get": ("get", "get_latency", "gets", "_failure_rng"),
    "delete": ("put", "delete_latency", "deletes", "_aux_failure_rng"),
    "head": ("get", "get_latency", "gets", "_aux_failure_rng"),
}


def run_and_advance(clock: VirtualClock, timed, *args):
    """Run one timed request at ``clock.now()`` and advance the clock to
    its completion — or, on a transient failure, to ``failed_at``.

    ``timed`` returns either a completion time or ``(value, completion)``;
    the value (``None`` for the former) is returned.
    """
    try:
        outcome = timed(*args, clock.now())
    except TransientRequestError as error:
        clock.advance_to(error.failed_at)
        raise
    value, done = outcome if isinstance(outcome, tuple) else (None, outcome)
    clock.advance_to(done)
    return value


class SimulatedObjectStore:
    """One simulated bucket."""

    def __init__(
        self,
        profile: ObjectStoreProfile = S3_PROFILE,
        clock: Optional[VirtualClock] = None,
        rng: Optional[DeterministicRng] = None,
        bandwidth: Optional[Pipe] = None,
        meter: Optional[CostMeter] = None,
        fault_schedule: "Optional[FaultSchedule]" = None,
        region: "Optional[str]" = None,
    ) -> None:
        self.profile = profile
        self.clock = clock or VirtualClock()
        self.fault_schedule = fault_schedule
        self.region = region
        self._rng = rng or DeterministicRng(0, f"objectstore/{profile.name}")
        self._lag_rng = self._rng.substream("visibility")
        self._jitter_rng = self._rng.substream("jitter")
        self._failure_rng = self._rng.substream("failures")
        # Separate streams for scheduled storms and for delete/HEAD
        # failures: attaching a schedule (or the delete/HEAD failure paths)
        # must not perturb the put/get draws of an existing run.
        self._storm_rng = self._rng.substream("fault-storms")
        self._aux_failure_rng = self._rng.substream("aux-failures")
        # Drawn only while a corruption event matches, so attaching (or
        # ignoring) corruption never perturbs other streams.
        self._corruption_rng = self._rng.substream("corruption")
        self._bandwidth = bandwidth or Pipe(
            profile.default_bandwidth, name=f"{profile.name}/bw"
        )
        self.meter = meter
        self.metrics = MetricsRegistry()
        self.tracer = NULL_TRACER
        self._objects: Dict[str, VersionedObject] = {}
        # key -> {version op_time -> CRC-32C of the *intended* payload},
        # recorded at PUT admission before any at-rest damage is applied.
        self._checksums: "Dict[str, Dict[float, int]]" = {}
        self._prefix_put_buckets: Dict[str, TokenBucket] = {}
        self._prefix_get_buckets: Dict[str, TokenBucket] = {}

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _prefix(key: str) -> str:
        return key.split("/", 1)[0]

    def _bucket(self, kind: str, prefix: str) -> TokenBucket:
        """The per-prefix token bucket of one request class (put/get)."""
        buckets = (self._prefix_put_buckets if kind == "put"
                   else self._prefix_get_buckets)
        if prefix not in buckets:
            rate = (self.profile.per_prefix_put_rate if kind == "put"
                    else self.profile.per_prefix_get_rate)
            buckets[prefix] = TokenBucket(rate, rate, name=f"{kind}/{prefix}")
        return buckets[prefix]

    def _jittered(self, latency: float) -> float:
        if self.profile.latency_jitter <= 0:
            return latency
        return latency * self._jitter_rng.lognormal(0.0, self.profile.latency_jitter)

    def _consult_schedule(self, op: str, key: str, now: float,
                          node: "Optional[str]") -> FaultDecision:
        if self.fault_schedule is None:
            return NO_FAULT
        decision = self.fault_schedule.decide(op, key, node, now, self.region)
        if decision.throttle_factor != 1.0:
            self.metrics.counter("fault_throttled_requests").increment()
        if decision.latency_multiplier != 1.0:
            self.metrics.counter("fault_latency_spikes").increment()
        return decision

    def _scheduled_failure(self, decision: FaultDecision) -> "Optional[str]":
        """Whether the schedule fails this request; returns the fault kind."""
        if decision.outage:
            self.metrics.counter("fault_outage_failures").increment()
            return "outage"
        if (
            decision.error_probability > 0
            and self._storm_rng.random() < decision.error_probability
        ):
            self.metrics.counter("fault_storm_failures").increment()
            return "storm"
        return None

    # --- checksum bookkeeping and scheduled corruption ----------------- #

    def record_checksum(self, key: str, op_time: float, value: int) -> None:
        """Record a version's clean checksum (replication applies use this
        to preserve the primary's checksum verbatim)."""
        self._checksums.setdefault(key, {})[op_time] = value

    def _checksum_for(self, key: str, op_time: float,
                      data: "Optional[bytes]") -> "Optional[int]":
        """The expected checksum of one version.

        Falls back to hashing the stored bytes for versions predating
        checksum recording — at-rest damage is only ever applied *after*
        the clean checksum was recorded, so the fallback never launders
        corruption into a matching checksum.
        """
        if data is None:
            return None
        table = self._checksums.get(key)
        if table is not None and op_time in table:
            return table[op_time]
        return crc32c(data)

    @staticmethod
    def _visible_version(versioned: VersionedObject, now: float,
                         ) -> "Optional[Tuple[float, float, Optional[bytes]]]":
        """The version a reader observes at ``now`` (LWW among visible)."""
        best: "Optional[Tuple[float, float, Optional[bytes]]]" = None
        for version in versioned._versions:
            if version[1] <= now and (best is None or version[0] > best[0]):
                best = version
        return best

    @staticmethod
    def _latest_version_index(versioned: "Optional[VersionedObject]",
                              ) -> "Optional[int]":
        if versioned is None or not versioned._versions:
            return None
        return max(range(len(versioned._versions)),
                   key=lambda i: versioned._versions[i][0])

    def _flip_bits(self, data: bytes, flips: int) -> bytes:
        if not data:
            return data
        damaged = bytearray(data)
        nbits = len(damaged) * 8
        for __ in range(flips):
            pos = self._corruption_rng.randint(0, nbits - 1)
            damaged[pos // 8] ^= 1 << (pos % 8)
        return bytes(damaged)

    def _corrupt_stored(self, payload: bytes, fault: FaultDecision) -> bytes:
        """At-rest damage for a PUT matched by a corruption window.

        The clean checksum was already recorded, so the damage is silent
        but detectable; it persists until read-repair or a scrubber pass.
        """
        rng = self._corruption_rng
        damaged = payload
        if (
            fault.truncate_probability > 0.0 and len(payload) > 1
            and rng.random() < fault.truncate_probability
        ):
            damaged = payload[: rng.randint(0, len(payload) - 1)]
            self.metrics.counter("fault_truncated_puts").increment()
        if (
            fault.bitrot_probability > 0.0
            and rng.random() < fault.bitrot_probability
        ):
            damaged = self._flip_bits(damaged, fault.bitrot_flips)
            self.metrics.counter("fault_bitrot_puts").increment()
        if damaged is not payload:
            self.metrics.counter("fault_corrupted_puts").increment()
        return damaged

    def _corrupt_served(self, versioned: VersionedObject, op_time: float,
                        data: bytes, fault: FaultDecision) -> bytes:
        """Transient read-side damage: the at-rest bytes stay intact, so
        a (verified) retry of the same GET can come back clean."""
        rng = self._corruption_rng
        if (
            fault.stale_probability > 0.0
            and rng.random() < fault.stale_probability
        ):
            stale = self._stale_predecessor(versioned, op_time)
            if stale is not None:
                self.metrics.counter("fault_stale_reads_served").increment()
                return stale
        if (
            fault.truncate_probability > 0.0 and len(data) > 1
            and rng.random() < fault.truncate_probability
        ):
            self.metrics.counter("fault_truncated_reads").increment()
            return data[: rng.randint(0, len(data) - 1)]
        if (
            fault.bitrot_probability > 0.0
            and rng.random() < fault.bitrot_probability
        ):
            self.metrics.counter("fault_bitrot_reads").increment()
            return self._flip_bits(data, fault.bitrot_flips)
        return data

    @staticmethod
    def _stale_predecessor(versioned: VersionedObject,
                           op_time: float) -> "Optional[bytes]":
        """The newest non-tombstone version strictly older than ``op_time``."""
        best: "Optional[Tuple[float, float, Optional[bytes]]]" = None
        for version in versioned._versions:
            if version[0] < op_time and version[2] is not None:
                if best is None or version[0] > best[0]:
                    best = version
        return best[2] if best is not None else None

    def _record_requests(self, puts: int = 0, gets: int = 0, deletes: int = 0) -> None:
        if self.meter is not None:
            self.meter.record_requests(
                self.profile.volume, puts=puts, gets=gets, deletes=deletes
            )

    def _trace_request(self, op: str, key: str, start: float, end: float,
                       nbytes: int = 0, fault: "Optional[str]" = None,
                       puts: int = 0, gets: int = 0,
                       deletes: int = 0) -> None:
        """One leaf span per request, with its USD cost attached.

        The span starts at request issue time — throttle and bandwidth
        queueing show up as store time, which is what per-prefix-limit
        analyses need to see.  Failed attempts are recorded too (they are
        billed and take time), tagged with the fault kind.
        """
        if not self.tracer.enabled:
            return
        attrs: "Dict[str, object]" = {"key": key}
        if nbytes:
            attrs["nbytes"] = nbytes
        if fault is not None:
            attrs["fault"] = fault
        if self.meter is not None:
            attrs["cost_usd"] = self.meter.prices.request_price(
                self.profile.volume
            ).cost(puts=puts, gets=gets, deletes=deletes)
        self.tracer.record(op, "store", start, end, **attrs)

    # ------------------------------------------------------------------ #
    # timed API (never advances the clock): one batch-first method per verb
    # ------------------------------------------------------------------ #

    def _begin_request(self, op: str, keys: "Sequence[str]", now: float,
                       node: "Optional[str]",
                       upload: "Optional[Tuple[Pipe, int]]" = None,
                       ) -> "Tuple[FaultDecision, float]":
        """The prologue every request shares; returns ``(fault, ready)``.

        Fault schedule → per-prefix token bucket → (PUT only) upload
        transfer → jittered latency → request counters → billing →
        failure draw.  The schedule, the bucket, the latency, the bill and
        the failure draw all apply *once*, to the first key of the batch.
        ``ready`` is when the store answers.  A (simulated) retryable failure raises :class:`TransientRequestError`
        — the failed attempt is still billed and still takes time, which
        the error carries in ``failed_at``.
        """
        bucket, latency, billed, failure_rng = _VERBS[op]
        anchor = keys[0]
        name = op if len(keys) == 1 else f"{op}_range"
        fault = self._consult_schedule(op, anchor, now, node)
        start = self._bucket(bucket, self._prefix(anchor)).request(
            now, 1.0 / fault.throttle_factor
        )
        nbytes = 0
        if upload is not None:
            pipe, nbytes = upload
            __, start = pipe.request(start, float(nbytes))
        ready = start + (
            self._jittered(getattr(self.profile, latency))
            * fault.latency_multiplier
        )
        self.metrics.counter(f"{op}_requests").increment()
        if len(keys) > 1:
            self.metrics.counter(f"ranged_{op}_requests").increment()
            self.metrics.counter(f"ranged_{op}_keys").increment(len(keys))
        if upload is not None:
            self.metrics.counter("put_bytes").increment(nbytes)
            # Recorded at transfer completion: the bandwidth curve then
            # shows what the pipe actually sustained (Figure 8).
            self.metrics.series("net_bytes").record(start, nbytes)
        self._record_requests(**{billed: 1})
        kind = self._scheduled_failure(fault)
        p = self.profile.transient_failure_probability
        if kind is None and p > 0 and getattr(self, failure_rng).random() < p:
            kind = "transient"
        # A successful GET ends after its download; get_range_at records it.
        if kind is not None or op != "get":
            self._trace_request(name, anchor, now, ready, nbytes=nbytes,
                                fault=kind, **{billed: 1})
        if kind is not None:
            raise TransientRequestError(anchor, kind=kind, failed_at=ready)
        return fault, ready

    def put_range_at(self, items: "Sequence[Tuple[str, bytes]]", now: float,
                     bandwidth: "Optional[Pipe]" = None,
                     node: "Optional[str]" = None) -> float:
        """Upload ``[(key, data)]`` as ONE billed PUT; return completion time.

        A single item is a plain PUT.  A run of adjacent keys (the
        client's ``max_run`` above 1) is a multipart-style request:
        one token against the first key's per-prefix bucket, one request
        latency, one billed PUT, transfer time for the combined payload.  A
        failure means *nothing* landed (the request never completed), so
        the client's per-key fallback cannot double-write.  On success
        every key gets its own visibility lag draw.

        ``bandwidth`` lets a caller route the transfer through its own NIC
        pipe (multiplex nodes each have one); the store's default pipe is
        used otherwise.  ``node`` tags the request for node-scoped fault
        events.
        """
        if not items:
            raise ValueError("put_range_at requires at least one item")
        for __, data in items:
            if not isinstance(data, (bytes, bytearray)):
                raise TypeError(
                    f"object data must be bytes, got {type(data)!r}"
                )
        total = sum(len(data) for __, data in items)
        fault, completion = self._begin_request(
            "put", [key for key, __ in items], now, node,
            upload=(bandwidth or self._bandwidth, total),
        )
        for key, data in items:
            lag = self.profile.consistency.sample_lag(self._lag_rng)
            if lag > 0:
                self.metrics.counter("delayed_visibility_puts").increment()
            versioned = self._objects.setdefault(key, VersionedObject())
            if versioned.latest_data() is not None:
                self.metrics.counter("overwrites").increment()
            payload = bytes(data)
            # The checksum of the *intended* payload is recorded at
            # admission — before any scheduled corruption damages the
            # stored bytes — exactly like a real store's ETag.
            self.record_checksum(key, completion, crc32c(payload))
            if fault.corrupting:
                payload = self._corrupt_stored(payload, fault)
            versioned.add_version(completion + lag, payload,
                                  op_time=completion)
        return completion

    def get_range_at(
        self, keys: "Sequence[str]", now: float,
        bandwidth: "Optional[Pipe]" = None, node: "Optional[str]" = None,
    ) -> "Tuple[Dict[str, Tuple[Optional[bytes], Optional[int]]], float]":
        """Serve ``[key]`` as ONE billed GET.

        Returns ``({key: (data_or_None, expected_crc)}, completion)``.  A
        single key is a plain GET; a run of adjacent keys (the client's
        ``max_run`` above 1) is a ranged multi-get — a transient
        failure fails, and later retries, the entire range.  Visibility is
        per key: ``None`` data means the object is not visible at service
        time, the eventually-consistent "no such key" case.  Stale reads
        (possible only for overwritten keys) return the stale bytes and
        bump a counter.  ``expected_crc`` is the checksum the store
        *advertises* for the served version (its ETag): corruption changes
        the bytes, not the ETag, which is what a verifying caller detects
        by comparing ``crc32c(data)`` against it.  Transfer time is charged
        for the combined visible payload.
        """
        if not keys:
            raise ValueError("get_range_at requires at least one key")
        fault, served_at = self._begin_request("get", keys, now, node)
        results: "Dict[str, Tuple[Optional[bytes], Optional[int]]]" = {}
        served = total = 0
        for key in keys:
            versioned = self._objects.get(key)
            version = (self._visible_version(versioned, served_at)
                       if versioned is not None else None)
            data = version[2] if version is not None else None
            if data is None:
                self.metrics.counter("get_misses").increment()
                results[key] = (None, None)
                continue
            if versioned.is_stale_read(served_at):
                self.metrics.counter("stale_reads").increment()
            expected = self._checksum_for(key, version[0], data)
            if fault.corrupting:
                data = self._corrupt_served(versioned, version[0], data, fault)
            results[key] = (data, expected)
            served += 1
            total += len(data)
        completion = served_at
        if served:
            __, completion = (bandwidth or self._bandwidth).request(
                served_at, float(total)
            )
            self.metrics.counter("get_bytes").increment(total)
            self.metrics.series("net_bytes").record(completion, total)
        self._trace_request(
            "get" if len(keys) == 1 else "get_range", keys[0], now,
            completion, nbytes=total, gets=1,
            fault="not_visible" if len(keys) == 1 and not served else None,
        )
        return results, completion

    def delete_at(self, key: str, now: float,
                  node: "Optional[str]" = None) -> float:
        """Delete (tombstone) the object; return completion time."""
        __, completion = self._begin_request("delete", [key], now, node)
        lag = self.profile.consistency.sample_lag(self._lag_rng)
        versioned = self._objects.get(key)
        if versioned is not None and versioned.latest_data() is not None:
            versioned.add_version(completion + lag, None,
                                  op_time=completion)
        return completion

    def exists_at(self, key: str, now: float,
                  node: "Optional[str]" = None) -> "Tuple[bool, float]":
        """HEAD-style visibility probe; billed as a GET."""
        __, served_at = self._begin_request("head", [key], now, node)
        versioned = self._objects.get(key)
        visible = versioned is not None and versioned.visible_data(served_at) is not None
        return visible, served_at

    # ------------------------------------------------------------------ #
    # repair surface (scrubber / read-repair / deep audit)
    # ------------------------------------------------------------------ #

    def recorded_checksum(self, key: str) -> "Optional[int]":
        """Clean checksum of the latest version (``None`` if absent/tombstone)."""
        versioned = self._objects.get(key)
        idx = self._latest_version_index(versioned)
        if idx is None:
            return None
        op_time, __, data = versioned._versions[idx]
        if data is None:
            return None
        return self._checksum_for(key, op_time, data)

    def verify_at_rest(self, key: str) -> "Optional[bool]":
        """Whether the latest stored bytes match their recorded checksum.

        Free of billing, RNG and time — used by the deep auditor and the
        scrubber's damage probe (the scrubber separately charges its read
        through its bandwidth budget).  ``None`` if the key is absent or
        tombstoned.
        """
        versioned = self._objects.get(key)
        idx = self._latest_version_index(versioned)
        if idx is None:
            return None
        op_time, __, data = versioned._versions[idx]
        if data is None:
            return None
        return crc32c(data) == self._checksum_for(key, op_time, data)

    def overwrite_latest(self, key: str, data: bytes) -> bool:
        """Replace the latest version's bytes in place (read-repair).

        Preserves the version's op_time/visibility so repair is invisible
        to the consistency model, and is idempotent: re-applying the same
        clean bytes is a no-op.  Returns ``False`` for absent/tombstoned
        keys.  Billing/pacing are the caller's job.
        """
        versioned = self._objects.get(key)
        idx = self._latest_version_index(versioned)
        if idx is None:
            return False
        op_time, visible_at, stored = versioned._versions[idx]
        if stored is None:
            return False
        versioned._versions[idx] = (op_time, visible_at, bytes(data))
        return True

    def inject_damage(self, key: str, flips: int = 1) -> bool:
        """Deterministically flip bits in the latest stored version.

        Test/crash-explorer hook: uses fixed arithmetic (no RNG draw, so
        injecting damage never perturbs any random stream) and records
        the clean checksum first so the damage is *detectable*.
        """
        versioned = self._objects.get(key)
        idx = self._latest_version_index(versioned)
        if idx is None:
            return False
        op_time, visible_at, data = versioned._versions[idx]
        if not data:
            return False
        self._checksums.setdefault(key, {}).setdefault(
            op_time, crc32c(data)
        )
        damaged = bytearray(data)
        nbits = len(damaged) * 8
        for i in range(flips):
            pos = (7919 * (i + 1)) % nbits
            damaged[pos // 8] ^= 1 << (pos % 8)
        versioned._versions[idx] = (op_time, visible_at, bytes(damaged))
        return True

    # ------------------------------------------------------------------ #
    # plain API (advances the shared clock)
    # ------------------------------------------------------------------ #

    def put(self, key: str, data: bytes) -> None:
        run_and_advance(self.clock, self.put_range_at, [(key, data)])

    def get(self, key: str) -> bytes:
        results = run_and_advance(self.clock, self.get_range_at, [key])
        data, __ = results[key]
        if data is None:
            raise NoSuchKeyError(key)
        return data

    def delete(self, key: str) -> None:
        run_and_advance(self.clock, self.delete_at, key)

    def exists(self, key: str) -> bool:
        return run_and_advance(self.clock, self.exists_at, key)

    def list_keys(self, prefix: str = "") -> "Iterator[str]":
        now = self.clock.now()
        for key in sorted(self._objects):
            if key.startswith(prefix) and self._objects[key].visible_data(now) is not None:
                yield key

    def stored_bytes(self) -> int:
        """Bytes at rest counting the *latest* version of each key."""
        total = 0
        for versioned in self._objects.values():
            data = versioned.latest_data()
            if data is not None:
                total += len(data)
        return total

    def object_count(self) -> int:
        return sum(
            1 for v in self._objects.values() if v.latest_data() is not None
        )

    def write_horizon(self) -> float:
        """Latest settle time of any write or delete the store accepted.

        Restart GC fences on this before polling a crashed node's keys: a
        request the dead node issued before crashing can carry a later
        operation time than a recovery that runs quickly afterwards, and
        under last-writer-wins such an in-flight put would outrun the
        poll's blind delete and resurrect the orphan it just reclaimed.
        Waiting until every accepted request has settled makes the delete
        the unambiguous last writer.
        """
        horizon = 0.0
        for versioned in self._objects.values():
            for op_time, visible_at, __ in versioned._versions:
                settle = max(op_time, visible_at)
                if settle > horizon:
                    horizon = settle
        return horizon

    # Introspection used by tests/ablations.

    def latest_data(self, key: str) -> "Optional[bytes]":
        """The most recent version regardless of visibility (test hook)."""
        versioned = self._objects.get(key)
        return versioned.latest_data() if versioned is not None else None

    def all_keys(self, prefix: str = "") -> "List[str]":
        """Keys whose latest version exists, regardless of visibility.

        The auditor's enumeration primitive: unlike :meth:`list_keys` it
        must see freshly written objects that eventual consistency still
        hides, and it charges no virtual time (fsck inspects the store's
        ground truth, it does not model LIST billing).
        """
        return [
            key
            for key in sorted(self._objects)
            if key.startswith(prefix)
            and self._objects[key].latest_data() is not None
        ]

    def prefix_count(self) -> int:
        """Number of distinct key prefixes seen so far."""
        return len(set(self._prefix_put_buckets) | set(self._prefix_get_buckets))

    def throttled_requests(self) -> int:
        """Requests delayed by per-prefix throttling (for the prefix ablation)."""
        return sum(
            bucket.throttled_requests
            for bucket in list(self._prefix_put_buckets.values())
            + list(self._prefix_get_buckets.values())
        )
