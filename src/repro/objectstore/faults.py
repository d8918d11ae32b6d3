"""Deterministic fault-schedule injection for the simulated object store.

The base simulator models failures with a single uniform
``transient_failure_probability``; real object stores fail in *shapes*:
multi-second regional outages, 503 storms while a partition heals, latency
spikes during reshards, and throttling clamp-downs on hot prefixes.  A
:class:`FaultSchedule` scripts those shapes as timed events on the virtual
clock:

- :class:`OutageWindow` — every matching request in ``[start, end)`` fails;
- :class:`ErrorStorm` — matching requests fail with a fixed probability
  (drawn from a dedicated :class:`~repro.sim.rng.DeterministicRng`
  substream, so runs replay bit-identically);
- :class:`LatencySpike` — matching requests take ``multiplier``× the
  profile latency;
- :class:`ThrottleStorm` — per-prefix token rates are cut to
  ``rate_factor`` of nominal (each request consumes ``1/rate_factor``
  tokens).

Events scope *globally* by default, or narrow to an operation subset
(``put``/``get``/``delete``/``head``), a key prefix, a node id (the
:class:`~repro.objectstore.client.RetryingObjectClient` of each multiplex
node tags its requests), or a *region* (each per-region store of a
:class:`~repro.objectstore.replicated.ReplicatedObjectStore` carries its
region identity) — so "the secondary lost the bucket while the
coordinator kept it" or "us-east-1 went away" is one event.
:class:`RegionOutage` is the canonical region-scoped event: every request
against the region fails while it is active, and the replication pump
defers queued applies into the region until it lifts.

Beyond availability faults, two *silent corruption* events model the
failure mode checksums exist for — requests **succeed**, but the bytes
are wrong:

- :class:`BitRot` — matching payloads get ``flips`` substream-drawn bit
  flips with probability ``probability`` (damage during a ``put`` window
  persists at rest; during a ``get`` window it is transient);
- :class:`TruncatedObject` — matching payloads are cut to a
  substream-drawn prefix (a torn read / partial object).

Overlapping events compose: any active outage wins, error-storm
probabilities combine to the maximum, latency multipliers multiply,
throttle factors take the minimum (harshest clamp), and corruption
probabilities combine to the maximum per kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

OPS = ("put", "get", "delete", "head")


def _normalize_ops(ops) -> "Optional[Tuple[str, ...]]":
    """Accept None (all ops), one op name, or an iterable of op names."""
    if ops is None:
        return None
    if isinstance(ops, str):
        ops = (ops,)
    normalized = tuple(sorted(set(ops)))
    for op in normalized:
        if op not in OPS:
            raise ValueError(f"unknown object-store op {op!r} (expected one of {OPS})")
    return normalized


@dataclass(frozen=True)
class FaultEvent:
    """A timed fault scoped by operation set, key prefix, node and/or region."""

    start: float
    end: float
    ops: "Optional[Tuple[str, ...]]" = None  # None = every operation
    prefix: "Optional[str]" = None           # None = every key
    node: "Optional[str]" = None             # None = every node
    region: "Optional[str]" = None           # None = every region

    def __post_init__(self) -> None:
        # Written so that NaN fails: a NaN window would match no request
        # and leave a drill silently fault-free.  ``end`` may be infinite.
        if not (math.isfinite(self.start) and self.start < self.end):
            raise ValueError(
                f"fault window must be non-empty with a finite start, "
                f"got [{self.start}, {self.end})"
            )
        object.__setattr__(self, "ops", _normalize_ops(self.ops))

    def matches(self, op: str, key: "Optional[str]", node: "Optional[str]",
                now: float, region: "Optional[str]" = None) -> bool:
        if not self.start <= now < self.end:
            return False
        if self.ops is not None and op not in self.ops:
            return False
        if self.prefix is not None and (key is None or not key.startswith(self.prefix)):
            return False
        if self.node is not None and node != self.node:
            return False
        if self.region is not None and region != self.region:
            return False
        return True


@dataclass(frozen=True)
class OutageWindow(FaultEvent):
    """A hard outage: every matching request fails while active."""


@dataclass(frozen=True)
class RegionOutage(OutageWindow):
    """A whole-region outage: every request against ``region`` fails.

    Subclassing :class:`OutageWindow` means the schedule's ``decide``
    composition treats it as a hard outage automatically.  ``region`` is
    required — a region outage without a region would be a global outage,
    which :class:`OutageWindow` already spells.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.region is None:
            raise ValueError("RegionOutage requires a region")


@dataclass(frozen=True)
class ErrorStorm(FaultEvent):
    """Matching requests fail with probability ``probability`` while active."""

    probability: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"storm probability must be in [0, 1], got {self.probability!r}"
            )


@dataclass(frozen=True)
class LatencySpike(FaultEvent):
    """Matching requests take ``multiplier``× the profile latency."""

    multiplier: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.multiplier <= 0:
            raise ValueError(
                f"latency multiplier must be positive, got {self.multiplier!r}"
            )


@dataclass(frozen=True)
class ThrottleStorm(FaultEvent):
    """Per-prefix request rates drop to ``rate_factor`` of nominal."""

    rate_factor: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.rate_factor <= 1.0:
            raise ValueError(
                f"throttle rate factor must be in (0, 1], got {self.rate_factor!r}"
            )


@dataclass(frozen=True)
class CorruptionEvent(FaultEvent):
    """Base for silent-corruption events.

    Matching requests *succeed* — no error is raised, no retry is
    triggered by the store itself — but with ``probability`` the payload
    is damaged.  Detection is entirely the checksum machinery's job,
    which is the point: a store without verified reads serves the
    damaged bytes straight to the executor.
    """

    probability: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"corruption probability must be in (0, 1], "
                f"got {self.probability!r}"
            )


@dataclass(frozen=True)
class BitRot(CorruptionEvent):
    """Flip ``flips`` deterministic substream-drawn bits of the payload."""

    flips: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.flips < 1:
            raise ValueError(f"flips must be >= 1, got {self.flips!r}")


@dataclass(frozen=True)
class TruncatedObject(CorruptionEvent):
    """Serve or store a substream-drawn strict prefix of the payload."""


@dataclass(frozen=True)
class FaultDecision:
    """What the schedule prescribes for one request at one virtual time."""

    outage: bool = False
    error_probability: float = 0.0
    latency_multiplier: float = 1.0
    throttle_factor: float = 1.0
    bitrot_probability: float = 0.0
    bitrot_flips: int = 0
    truncate_probability: float = 0.0

    @property
    def corrupting(self) -> bool:
        """Whether any silent-corruption event is active."""
        return (
            self.bitrot_probability > 0.0
            or self.truncate_probability > 0.0
        )

    @property
    def faulty(self) -> bool:
        return (
            self.outage
            or self.error_probability > 0.0
            or self.latency_multiplier != 1.0
            or self.throttle_factor != 1.0
            or self.corrupting
        )


NO_FAULT = FaultDecision()


class FaultSchedule:
    """An ordered collection of fault events consulted per request.

    The schedule itself is pure bookkeeping — it never draws randomness.
    The store draws any error-storm coin flips from its own dedicated
    substream, and only while a storm is active, so attaching a schedule
    never perturbs the RNG streams of an existing run outside the storm.
    """

    def __init__(self, events: "Iterable[FaultEvent]" = (),
                 name: str = "") -> None:
        self.name = name
        self._events: "List[FaultEvent]" = []
        for event in events:
            self.add(event)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        if not isinstance(event, FaultEvent):
            raise TypeError(f"expected a FaultEvent, got {type(event)!r}")
        self._events.append(event)
        return self

    @property
    def events(self) -> "List[FaultEvent]":
        return list(self._events)

    def active_events(self, now: float) -> "List[FaultEvent]":
        return [e for e in self._events if e.start <= now < e.end]

    @property
    def horizon(self) -> float:
        """Virtual time after which the schedule injects no new fault.

        The maximum ``end`` over *every* event type, corruption events
        included.  Note the caveat corruption introduces: a
        :class:`BitRot`/:class:`TruncatedObject` window covering ``put``
        damages objects *at rest*, and that damage outlives the window —
        after the horizon no new fault fires, but previously stored
        corrupt bytes remain until repaired (see
        :attr:`leaves_residual_damage` and :mod:`repro.core.scrub`).
        """
        return max((e.end for e in self._events), default=0.0)

    @property
    def corrupting(self) -> bool:
        """Whether the schedule contains any corruption events at all.

        Callers use this to decide whether verified reads are worth
        their (small) CPU cost: a schedule of pure availability faults
        (storms, outages, latency) never mutates payload bytes.
        """
        return any(isinstance(e, CorruptionEvent) for e in self._events)

    @property
    def leaves_residual_damage(self) -> bool:
        """Whether the schedule can corrupt objects at rest.

        True when any corruption event covers ``put``: the damage it
        stores persists past :attr:`horizon` until read-repair or a
        scrubber pass heals it.  Purely read-side corruption
        (``ops="get"`` windows) is transient.
        """
        return any(
            isinstance(event, (BitRot, TruncatedObject))
            and (event.ops is None or "put" in event.ops)
            for event in self._events
        )

    def decide(self, op: str, key: "Optional[str]", node: "Optional[str]",
               now: float, region: "Optional[str]" = None) -> FaultDecision:
        """Combine every matching event into one prescription."""
        outage = False
        probability = 0.0
        multiplier = 1.0
        throttle = 1.0
        bitrot = 0.0
        flips = 0
        truncate = 0.0
        for event in self._events:
            if not event.matches(op, key, node, now, region):
                continue
            if isinstance(event, OutageWindow):
                outage = True
            elif isinstance(event, ErrorStorm):
                probability = max(probability, event.probability)
            elif isinstance(event, LatencySpike):
                multiplier *= event.multiplier
            elif isinstance(event, ThrottleStorm):
                throttle = min(throttle, event.rate_factor)
            elif isinstance(event, BitRot):
                bitrot = max(bitrot, event.probability)
                flips = max(flips, event.flips)
            elif isinstance(event, TruncatedObject):
                truncate = max(truncate, event.probability)
        if (
            not outage and probability == 0.0 and multiplier == 1.0
            and throttle == 1.0 and bitrot == 0.0 and truncate == 0.0
        ):
            return NO_FAULT
        return FaultDecision(outage, probability, multiplier, throttle,
                             bitrot, flips, truncate)

    def __repr__(self) -> str:
        return f"FaultSchedule({self.name!r}, events={len(self._events)})"


# --------------------------------------------------------------------- #
# canonical named schedules (CLI `chaos` command, chaos benchmarks)
# --------------------------------------------------------------------- #

def canonical_storm(start: float = 5.0) -> FaultSchedule:
    """The acceptance storm: 10 s blackout, then a 30 s degraded period
    with 20% errors, quarter-rate throttling and 4× latency."""
    return FaultSchedule(
        [
            OutageWindow(start, start + 10.0),
            ErrorStorm(start + 10.0, start + 40.0, probability=0.2),
            ThrottleStorm(start + 10.0, start + 40.0, rate_factor=0.25),
            LatencySpike(start + 10.0, start + 40.0, multiplier=4.0),
        ],
        name="storm",
    )


def bitrot_schedule(start: float = 5.0, duration: float = 30.0,
                    probability: float = 0.3, flips: int = 1) -> FaultSchedule:
    """Silent bit rot over both paths: a ``get`` window serves flipped
    bytes (transient — a verified retry heals it), overlapping a ``put``
    window that stores flipped bytes at rest (persistent — only
    read-repair or the scrubber heals it)."""
    return FaultSchedule(
        [
            BitRot(start, start + duration, ops="get",
                   probability=probability, flips=flips),
            BitRot(start, start + duration, ops="put",
                   probability=probability, flips=flips),
        ],
        name="bitrot",
    )


def torn_read_schedule(start: float = 5.0, duration: float = 30.0,
                       probability: float = 0.3) -> FaultSchedule:
    """Torn reads: matching GETs return a strict prefix of the object
    (the partial-object hazard Stocator defends against)."""
    return FaultSchedule(
        [
            TruncatedObject(start, start + duration, ops="get",
                            probability=probability),
        ],
        name="torn-read",
    )


NAMED_SCHEDULES: "Dict[str, object]" = {
    "storm": canonical_storm,
    "bitrot": bitrot_schedule,
    "torn-read": torn_read_schedule,
}


def named_schedule(name: str, start: float = 5.0) -> FaultSchedule:
    """Instantiate one of the canonical schedules by name."""
    try:
        factory = NAMED_SCHEDULES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault schedule {name!r} "
            f"(available: {', '.join(sorted(NAMED_SCHEDULES))})"
        ) from None
    return factory(start=start)  # type: ignore[operator]
