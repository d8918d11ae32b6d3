"""A virtual clock shared by every simulated component.

The clock only moves forward.  Components *charge* durations to the clock
(``advance``) or declare that an operation completes at an absolute virtual
time (``advance_to``).  Benchmarks read elapsed virtual seconds through
:meth:`VirtualClock.now`.

With a :class:`~repro.sim.sessions.SessionScheduler` attached, an advance
made from inside a scheduled session becomes a *timed wait*: the session
yields to the scheduler until global virtual time reaches its wakeup, so
other sessions run during the gap instead of the caller monopolizing the
clock.  Without a scheduler (the default), advances behave exactly as they
always have — single-stream benchmarks are byte-identical either way.
"""

from __future__ import annotations

import math


class ClockError(Exception):
    """Raised on a move backwards, or to a time that is not finite."""


class VirtualClock:
    """Monotonically increasing virtual time, in seconds.

    The clock starts at zero (or at ``start``).  It is deliberately not
    thread-safe: the whole simulation is single-threaded and deterministic.
    (The session scheduler preserves this: it hands control to exactly one
    session at a time, so even its thread-backed sessions never race.)
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)
        self._scheduler = None

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def attach_scheduler(self, scheduler) -> None:
        """Route in-session advances through ``scheduler`` as timed waits."""
        if self._scheduler is not None and self._scheduler is not scheduler:
            raise ClockError("another session scheduler is already attached")
        self._scheduler = scheduler

    def detach_scheduler(self, scheduler) -> None:
        if self._scheduler is scheduler:
            self._scheduler = None

    @property
    def scheduler(self):
        return self._scheduler

    def _set_now(self, when: float) -> None:
        """Scheduler-internal forward jump (no yield, the baton holder only)."""
        if when < self._now - 1e-12:
            raise ClockError(
                f"cannot move clock backwards from {self._now!r} to {when!r}"
            )
        self._now = max(self._now, when)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if not 0 <= seconds < math.inf:
            raise ClockError(f"cannot advance clock by {seconds!r} seconds")
        scheduler = self._scheduler
        if scheduler is not None and scheduler.in_session():
            return scheduler.wait_until(self._now + seconds)
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to the absolute time ``when``.

        Moving to a time in the past is an error; moving to the current time
        is a no-op.  Returns the new time.  From inside a scheduled session
        a *past* target is instead a no-op: concurrent sessions may have
        legitimately pushed global time beyond a completion computed before
        the session last yielded, which simply means no further wait.
        """
        if not math.isfinite(when):
            raise ClockError(f"cannot advance clock to {when!r}")
        scheduler = self._scheduler
        if scheduler is not None and scheduler.in_session():
            return scheduler.wait_until(when)
        if when < self._now - 1e-12:
            raise ClockError(
                f"cannot move clock backwards from {self._now!r} to {when!r}"
            )
        self._now = max(self._now, when)
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
