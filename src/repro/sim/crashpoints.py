"""Deterministic crash-point injection (the crash-consistency backstop).

The paper's recovery story (Sections 3-5, Table 1) rests on multi-step
protocols — allocate key, PUT object, append a log record, update the
blockmap, publish the identity — surviving a crash *between any two
steps*.  This module provides named, arm-able crash points so a test or
the crash-exploration harness can make the next traversal of a specific
protocol step raise :class:`SimulatedCrash`, which the engine translates
into its ordinary ``crash()`` semantics.

Instrumented modules register their points at import time and call
:func:`crash_point` at each protocol step.  The check is a dict lookup
plus an integer increment when nothing is armed, so leaving the
instrumentation in hot paths (page writes, uploads) is essentially free.

All points share one process-wide registry (:data:`CRASH_POINTS`): the
simulation is single-threaded and deterministic, and the registry is the
natural rendezvous between the instrumented engine internals — which have
no reference to a :class:`~repro.engine.Database` — and the harness that
arms points.  Arming is one-shot: a fired point disarms itself, so a
recovery pass never re-trips the crash that interrupted it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.sim.metrics import MetricsRegistry


class CrashPointError(Exception):
    """Arming unknown points or invalid arm parameters."""


class SimulatedCrash(Exception):
    """An armed crash point was traversed; the node dies *here*.

    Raised from deep inside a protocol (mid-commit, mid-GC, mid-restart):
    the handler must treat the node's volatile state as garbage and go
    through ``crash()``/``restart()``, exactly as for any other crash.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at point {point!r}")
        self.point = point


@dataclass
class CrashPoint:
    """One named protocol step that can be armed to crash."""

    name: str
    description: str = ""
    hits: int = 0
    fired: int = 0
    # None = disarmed; N = crash on the (N+1)-th traversal from now.
    armed_countdown: "Optional[int]" = None

    @property
    def armed(self) -> bool:
        return self.armed_countdown is not None


class CrashPointRegistry:
    """Named crash points: registration, arming, traversal accounting."""

    def __init__(self) -> None:
        self._points: Dict[str, CrashPoint] = {}
        self._armed_count = 0
        self.fired_total = 0
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(self, name: str, description: str = "") -> CrashPoint:
        """Declare a point (idempotent; keeps the first description)."""
        point = self._points.get(name)
        if point is None:
            point = CrashPoint(name, description)
            self._points[name] = point
        elif description and not point.description:
            point.description = description
        return point

    def names(self) -> "List[str]":
        return sorted(self._points)

    def point(self, name: str) -> CrashPoint:
        try:
            return self._points[name]
        except KeyError:
            raise CrashPointError(f"unknown crash point {name!r}") from None

    # ------------------------------------------------------------------ #
    # arming
    # ------------------------------------------------------------------ #

    def arm(self, name: str, skip: int = 0) -> None:
        """Crash on the ``skip + 1``-th traversal of ``name`` from now."""
        if skip < 0:
            raise CrashPointError(f"skip must be >= 0, got {skip}")
        point = self.point(name)
        if point.armed_countdown is None:
            self._armed_count += 1
        point.armed_countdown = skip

    def disarm(self, name: str) -> None:
        point = self.point(name)
        if point.armed_countdown is not None:
            point.armed_countdown = None
            self._armed_count -= 1

    def disarm_all(self) -> None:
        for point in self._points.values():
            point.armed_countdown = None
        self._armed_count = 0

    def armed_points(self) -> "List[str]":
        return sorted(
            name for name, point in self._points.items() if point.armed
        )

    @contextmanager
    def armed(self, name: str, skip: int = 0) -> "Iterator[None]":
        """Arm ``name`` for the duration of a ``with`` block."""
        self.arm(name, skip=skip)
        try:
            yield
        finally:
            self.disarm(name)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def hit(self, name: str) -> None:
        """Record a traversal; raise :class:`SimulatedCrash` if armed."""
        point = self._points.get(name)
        if point is None:
            # Unregistered names are registered on first traversal so ad
            # hoc instrumentation in tests cannot silently miscount.
            point = self.register(name)
        point.hits += 1
        if self._armed_count == 0 or point.armed_countdown is None:
            return
        if point.armed_countdown > 0:
            point.armed_countdown -= 1
            return
        # One-shot: disarm before raising so recovery can traverse the
        # same step without re-crashing.
        point.armed_countdown = None
        self._armed_count -= 1
        point.fired += 1
        self.fired_total += 1
        self.metrics.counter("crashpoints_fired").increment()
        self.metrics.counter(f"crashpoint_fired:{name}").increment()
        raise SimulatedCrash(name)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def reset_counts(self) -> None:
        """Zero hit/fired counters (registrations and arming survive)."""
        for point in self._points.values():
            point.hits = 0
            point.fired = 0
        self.fired_total = 0
        self.metrics = MetricsRegistry()

    def snapshot(self) -> "Dict[str, Dict[str, int]]":
        """Machine-readable traversal/fire counts per point."""
        return {
            name: {"hits": point.hits, "fired": point.fired}
            for name, point in sorted(self._points.items())
        }


#: The process-wide registry every instrumented module reports into.
CRASH_POINTS = CrashPointRegistry()


def register_crash_point(name: str, description: str = "") -> str:
    """Module-level registration helper; returns ``name`` for reuse."""
    CRASH_POINTS.register(name, description)
    return name


def crash_point(name: str) -> None:
    """Traverse a crash point (raises :class:`SimulatedCrash` if armed)."""
    CRASH_POINTS.hit(name)
