"""Event-driven session scheduler: thousands of logical clients, one clock.

Everything in the simulation charges durations to one
:class:`~repro.sim.clock.VirtualClock`.  Historically a benchmark was a
single stream: each operation ran to completion, advancing the clock as it
went, so "concurrency" could only be approximated by running streams back
to back.  The :class:`SessionScheduler` replaces that with a discrete-event
design:

- every logical client is a **session** running its ordinary synchronous
  code (the full engine stack: buffer, OCM, client, store) on a
  coroutine-style worker thread;
- the scheduler keeps an **event heap** of ``(wakeup_time, seq, session)``
  entries and hands control to exactly one session at a time — the one
  with the earliest wakeup;
- any ``clock.advance()`` / ``clock.advance_to()`` made *inside* a session
  becomes a timed wait: the session parks on the heap and other sessions
  run during the gap.  Device models (:class:`~repro.sim.pipes.Pipe`
  FCFS queues, token buckets, the CPU model) are shared, so contention
  between interleaved sessions emerges from the same reservation
  machinery the single-stream benches use.

Hand-off: control is a baton, one raw lock per session (acquire to park,
release to wake), passed straight from the thread that gives it up to the
next session due.  The driver in :meth:`SessionScheduler.run` only starts
the chain and is woken when it ends (heap empty, deadlock or a failure).
Three rules keep it to at most one OS thread switch per activation:

- **self-next**: a wait that ends strictly before the heap's head only
  moves the clock; the session keeps running without parking;
- **direct hand-off**: a session that parks or exits pops the heap and
  wakes the next session itself;
- **in-place start**: a finishing worker whose successor has never started
  runs it on its own thread, so back-to-back sessions share one thread;
  otherwise it waits idle, and the next session to start runs on it.

Determinism: handoff is strict (never two runnable sessions at once), the
heap order is a total order via the monotone sequence number, and no wall
clock or OS scheduling decision is ever consulted — a run is a pure
function of the seed and the session program.  Worker threads are an
implementation detail that lets deep synchronous call stacks suspend
mid-operation without rewriting every layer into generators.

With no scheduler attached the clock behaves exactly as before, keeping
single-stream runs byte-identical (see the golden regression).
"""

from __future__ import annotations

import heapq
import math
import threading
from _thread import allocate_lock
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import VirtualClock

# Worker stacks are small: engine call stacks are a few dozen frames deep,
# and thousands of sessions at the default 8 MiB would bloat virtual
# memory for nothing.
_SESSION_STACK_BYTES = 2 * 1024 * 1024


class SchedulerError(Exception):
    """Misuse of the scheduler (deadlocks, cross-session calls...)."""


class _SessionKilled(BaseException):
    """Raised inside a parked session when the scheduler shuts down.

    Derives from ``BaseException`` so ordinary ``except Exception``
    handlers in session code cannot swallow the shutdown.
    """


class Session:
    """One logical client: a named, schedulable unit of work."""

    def __init__(self, scheduler: "SessionScheduler", session_id: int,
                 name: str, fn: Callable[["Session"], object],
                 tenant: "Optional[str]" = None) -> None:
        self.scheduler = scheduler
        self.session_id = session_id
        self.name = name
        self.tenant = tenant
        self.result: object = None
        self.error: "Optional[BaseException]" = None
        self.finished = False
        self.started_at: "Optional[float]" = None
        self.finished_at: "Optional[float]" = None
        self._fn = fn
        # The thread running this session; None until it starts.
        self._thread: "Optional[threading.Thread]" = None
        self._baton = _held_baton()
        self._suspended = False
        self._killed = False

    def sleep(self, seconds: float) -> float:
        """Park this session for ``seconds`` of virtual time."""
        if not 0 <= seconds < math.inf:
            raise SchedulerError(f"cannot sleep {seconds!r} seconds")
        return self.scheduler.wait_until(
            self.scheduler.clock.now() + seconds, session=self
        )

    def __repr__(self) -> str:
        return f"Session(#{self.session_id} {self.name!r})"


def _held_baton():
    """A raw lock already held: its owner parks by acquiring it again."""
    baton = allocate_lock()
    baton.acquire()
    return baton


class SessionScheduler:
    """Interleave sessions on a shared clock via an event heap of wakeups."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: "List[Tuple[float, int, Session]]" = []
        self._seq = 0
        self._sessions: "List[Session]" = []
        self._current: "Optional[Session]" = None
        self._driver = _held_baton()
        self._error: "Optional[BaseException]" = None
        # Finished workers waiting to start a session: [baton, session].
        self._idle: "List[list]" = []
        self._unfinished = 0
        self._suspended_count = 0
        self._running = False
        self._handoffs = 0

    # -- public API ----------------------------------------------------- #

    def spawn(self, fn: Callable[[Session], object], *,
              name: "Optional[str]" = None, at: "Optional[float]" = None,
              tenant: "Optional[str]" = None) -> Session:
        """Register a session starting at virtual time ``at`` (default now).

        ``fn`` receives the :class:`Session` and runs synchronously on the
        shared engine stack; its return value lands in ``session.result``.
        """
        session_id = len(self._sessions)
        session = Session(
            self, session_id, name or f"s{session_id}", fn, tenant=tenant
        )
        now = self.clock.now()
        wake = now if at is None else float(at)
        if not now <= wake < math.inf:
            raise SchedulerError(
                f"cannot spawn {session.name!r} at {wake!r} (now {now!r})"
            )
        self._sessions.append(session)
        self._unfinished += 1
        self._push(wake, session)
        return session

    def run(self) -> None:
        """Drive the event loop until every session finished.

        Attaches to the clock for the duration so in-session advances park
        on the heap; detaches afterwards, restoring plain clock semantics.
        Raises the first session error (after killing the survivors); a
        scheduler that killed sessions cannot run again.
        """
        if self._running:
            raise SchedulerError("run() is not reentrant")
        if any(session._killed for session in self._sessions):
            raise SchedulerError("a previous run() killed sessions; "
                                 "this scheduler cannot run again")
        self._running = True
        self._error = None
        self.clock.attach_scheduler(self)
        # Set for the whole run, not around each start: starts happen on
        # session threads, which interleave with the thread giving way.
        stack_size = threading.stack_size()
        try:
            try:
                threading.stack_size(_SESSION_STACK_BYTES)
            except (ValueError, RuntimeError):
                pass
            self._hand_off()
            self._driver.acquire()
            if self._error is not None:
                raise self._error
            if self._unfinished:
                raise SchedulerError(
                    f"deadlock: {self._suspended_count} suspended "
                    "session(s) can never be resumed"
                )
        finally:
            self._running = False
            self._kill_remaining()
            self.clock.detach_scheduler(self)
            threading.stack_size(stack_size)

    def in_session(self) -> bool:
        """True when the calling thread is the currently scheduled session."""
        current = self._current
        return (
            current is not None
            and current._thread is threading.current_thread()
        )

    def wait_until(self, when: float,
                   session: "Optional[Session]" = None) -> float:
        """Park the calling session until global time reaches ``when``.

        A target at or before the current time returns immediately without
        yielding (zero-length waits would only churn handoffs), and so does
        one strictly before every other wakeup: that is one activation,
        with no thread switch.  Called by the clock on behalf of whatever
        in-session code advanced it.
        """
        current = self._require_current(session)
        now = self.clock.now()
        if when <= now:
            return now
        if not self._heap or when < self._heap[0][0]:
            self._handoffs += 1
            self.clock._set_now(when)
            return when
        self._push(when, current)
        self._park(current)
        return self.clock.now()

    def suspend(self, session: "Optional[Session]" = None) -> float:
        """Park the calling session with *no* wakeup scheduled.

        Admission control and other condition-style waits use this; some
        other session must :meth:`resume` it.  Returns the virtual time at
        resumption.
        """
        current = self._require_current(session)
        current._suspended = True
        self._suspended_count += 1
        self._park(current)
        return self.clock.now()

    def resume(self, session: Session, delay: float = 0.0) -> None:
        """Schedule a suspended session to wake ``delay`` seconds from now."""
        if not session._suspended:
            raise SchedulerError(f"{session!r} is not suspended")
        if not 0 <= delay < math.inf:
            raise SchedulerError(f"cannot resume after {delay!r} seconds")
        session._suspended = False
        self._suspended_count -= 1
        self._push(self.clock.now() + delay, session)

    @property
    def sessions(self) -> "List[Session]":
        return list(self._sessions)

    @property
    def unfinished(self) -> int:
        """Sessions spawned but not yet finished."""
        return self._unfinished

    def runnable_backlog(self, now: "Optional[float]" = None) -> int:
        """Sessions due to run at or before ``now`` (default: current time).

        A controller-style session reading this sees how far behind the
        event loop is: parked wakeups that have already come due are
        offered work the engine has not absorbed yet.  Purely a function
        of the heap and the virtual clock, so reading it never perturbs
        a run.
        """
        when = self.clock.now() if now is None else now
        return sum(
            1 for wake, __, session in self._heap
            if wake <= when and not session.finished
        )

    @property
    def handoffs(self) -> int:
        """Number of session activations so far (scheduler overhead stat)."""
        return self._handoffs

    # -- internals ------------------------------------------------------ #

    def _push(self, wake: float, session: Session) -> None:
        heapq.heappush(self._heap, (wake, self._seq, session))
        self._seq += 1

    def _require_current(self, session: "Optional[Session]") -> Session:
        current = self._current
        if current is None or not self.in_session():
            raise SchedulerError(
                "wait/suspend called outside the scheduled session"
            )
        if session is not None and session is not current:
            raise SchedulerError(
                f"{session!r} tried to park while {current!r} is scheduled"
            )
        return current

    def _next(self) -> "Optional[Session]":
        """Pop the next session due and make it current; None once the
        chain ends (heap empty or the run failed), with the driver woken."""
        if self._heap and self._error is None:
            wake, __, session = heapq.heappop(self._heap)
            self.clock._set_now(wake)
            self._handoffs += 1
            self._current = session
            return session
        self._current = None
        self._driver.release()
        return None

    def _hand_off(self) -> None:
        """Give control to the next session due, or back to the driver."""
        session = self._next()
        if session is None:
            return
        if session._thread is not None:
            session._baton.release()
            return
        if self._idle:
            slot = self._idle.pop()
            slot[1] = session
            slot[0].release()
            return
        try:
            threading.Thread(
                target=self._work, args=(session,),
                name=f"session/{session.name}", daemon=True,
            ).start()
        except Exception as error:
            # This runs inside whatever engine call advanced the clock,
            # where retry loops catch Exception: fail the run instead.
            failure = SchedulerError(f"cannot start a thread for {session!r}")
            failure.__cause__ = error
            self._error = failure
            self._next()

    def _park(self, session: Session) -> None:
        """On the session's thread: pass control on, await the baton."""
        self._hand_off()
        session._baton.acquire()
        if session._killed:
            raise _SessionKilled()

    def _work(self, session: "Optional[Session]") -> None:
        """Worker thread: run sessions until control passes elsewhere."""
        while session is not None:
            session._thread = threading.current_thread()
            try:
                session.started_at = self.clock.now()
                session.result = session._fn(session)
            except _SessionKilled:
                pass
            except BaseException as error:  # surfaced by run()
                session.error = self._error = error
            finally:
                session.finished = True
                session.finished_at = self.clock.now()
                self._unfinished -= 1
            session = self._next()
            if session is not None and session._thread is not None:
                # Wait idle for a session to start instead of exiting.
                slot = [_held_baton(), None]
                self._idle.append(slot)
                session._baton.release()
                slot[0].acquire()
                session = slot[1]

    def _kill_remaining(self) -> None:
        """Retire idle workers; unwind every unfinished session (errors)."""
        self._heap.clear()
        for baton, __ in self._idle:
            baton.release()
        self._idle.clear()
        for session in self._sessions:
            if session.finished:
                continue
            session._killed = True
            if session._thread is None:
                session.finished = True
                session.finished_at = self.clock.now()
                self._unfinished -= 1
                continue
            self._current = session
            session._baton.release()
            self._driver.acquire()
            session._thread.join(timeout=5.0)
