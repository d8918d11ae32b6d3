"""Unit tests for the event-driven session scheduler."""

import random
import sys
import threading

import pytest

from repro.sim import sessions as sessions_module
from repro.sim.clock import ClockError, VirtualClock
from repro.sim.sessions import SchedulerError, SessionScheduler


def make_scheduler(start: float = 0.0):
    clock = VirtualClock(start)
    return clock, SessionScheduler(clock)


class TestInterleaving:
    def test_sessions_interleave_on_timed_waits(self):
        clock, scheduler = make_scheduler()
        events = []

        def slow(session):
            for _ in range(2):
                clock.advance(1.0)
                events.append(("slow", clock.now()))

        def fast(session):
            for _ in range(3):
                clock.advance(0.4)
                events.append(("fast", clock.now()))

        scheduler.spawn(slow, name="slow")
        scheduler.spawn(fast, name="fast")
        scheduler.run()
        # fast's 0.4/0.8/1.2 wakeups land inside and between slow's
        # 1.0/2.0 waits: strict global time order, not per-session order.
        assert events == [
            ("fast", 0.4),
            ("fast", 0.8),
            ("slow", 1.0),
            ("fast", 1.2000000000000002),
            ("slow", 2.0),
        ]

    def test_single_session_equals_inline_execution(self):
        """One scheduled session must produce the same clock trajectory
        as running the same code inline (the byte-identical guarantee)."""
        def work(clock):
            clock.advance(0.25)
            clock.advance_to(1.0)
            clock.advance(0.5)
            return clock.now()

        inline_clock = VirtualClock()
        inline_result = work(inline_clock)

        clock, scheduler = make_scheduler()
        session = scheduler.spawn(lambda s: work(clock))
        scheduler.run()
        assert session.result == inline_result
        assert clock.now() == inline_clock.now()

    def test_arrival_times_respected(self):
        clock, scheduler = make_scheduler()
        starts = []
        scheduler.spawn(lambda s: starts.append(clock.now()), at=3.0)
        scheduler.spawn(lambda s: starts.append(clock.now()), at=1.0)
        scheduler.run()
        assert starts == [1.0, 3.0]
        assert clock.now() == 3.0

    def test_spawn_in_the_past_rejected(self):
        clock, scheduler = make_scheduler(start=10.0)
        with pytest.raises(SchedulerError):
            scheduler.spawn(lambda s: None, at=5.0)


class TestDeterminism:
    def test_equal_wakeups_run_in_spawn_order(self):
        clock, scheduler = make_scheduler()
        order = []
        for label in ("a", "b", "c"):
            scheduler.spawn(
                lambda s, label=label: order.append(label), at=1.0
            )
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_two_runs_identical(self):
        def run_once():
            clock, scheduler = make_scheduler()
            trace = []

            def body(session):
                for step in range(3):
                    session.sleep(0.1 * (session.session_id + 1))
                    trace.append((session.session_id, round(clock.now(), 9)))

            for index in range(5):
                scheduler.spawn(body, at=index * 0.05)
            scheduler.run()
            return trace

        assert run_once() == run_once()


class TestSleepAndWaits:
    def test_sleep_advances_only_this_session(self):
        clock, scheduler = make_scheduler()
        seen = []

        def sleeper(session):
            session.sleep(5.0)
            seen.append(("sleeper", clock.now()))

        def worker(session):
            clock.advance(1.0)
            seen.append(("worker", clock.now()))

        scheduler.spawn(sleeper)
        scheduler.spawn(worker)
        scheduler.run()
        assert seen == [("worker", 1.0), ("sleeper", 5.0)]

    def test_negative_sleep_rejected(self):
        clock, scheduler = make_scheduler()

        def bad(session):
            session.sleep(-1.0)

        scheduler.spawn(bad)
        with pytest.raises(SchedulerError):
            scheduler.run()

    def test_in_session_advance_to_past_is_noop(self):
        """Concurrent sessions may push global time past a precomputed
        completion time; applying it afterwards must clamp, not fail."""
        clock, scheduler = make_scheduler()

        def racer(session):
            target = clock.now() + 0.1
            session.sleep(1.0)  # meanwhile other sessions ran past target
            clock.advance_to(target)  # no-op, not a ClockError
            return clock.now()

        session = scheduler.spawn(racer)
        scheduler.spawn(lambda s: clock.advance(0.5))
        scheduler.run()
        assert session.result == 1.0

    def test_driver_advance_to_past_still_raises(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(1.0)


class TestSuspendResume:
    def test_admission_style_handoff(self):
        clock, scheduler = make_scheduler()
        waiting = []
        order = []

        def blocked(session):
            waiting.append(session)
            scheduler.suspend(session)
            order.append(("resumed", clock.now()))

        def releaser(session):
            session.sleep(2.0)
            scheduler.resume(waiting.pop(), delay=0.5)
            order.append(("released", clock.now()))

        scheduler.spawn(blocked)
        scheduler.spawn(releaser)
        scheduler.run()
        assert order == [("released", 2.0), ("resumed", 2.5)]

    def test_resume_requires_suspended(self):
        clock, scheduler = make_scheduler()
        target = scheduler.spawn(lambda s: s.sleep(1.0))

        def meddler(session):
            scheduler.resume(target)

        scheduler.spawn(meddler)
        with pytest.raises(SchedulerError):
            scheduler.run()

    def test_deadlock_detected(self):
        clock, scheduler = make_scheduler()
        scheduler.spawn(lambda s: scheduler.suspend(s))
        with pytest.raises(SchedulerError, match="deadlock"):
            scheduler.run()


class TestErrorsAndLifecycle:
    def test_session_error_propagates_to_run(self):
        clock, scheduler = make_scheduler()

        def boom(session):
            clock.advance(1.0)
            raise RuntimeError("session exploded")

        scheduler.spawn(boom)
        with pytest.raises(RuntimeError, match="session exploded"):
            scheduler.run()

    def test_survivors_are_unwound_after_error(self):
        clock, scheduler = make_scheduler()

        def boom(session):
            raise ValueError("first")

        survivor = scheduler.spawn(lambda s: s.sleep(100.0))
        scheduler.spawn(boom, at=1.0)
        with pytest.raises(ValueError):
            scheduler.run()
        # The sleeper was parked at t=100; the shutdown killed it without
        # running its remaining body and without surfacing a second error.
        assert not survivor.finished or survivor.error is None

    def test_killed_sessions_are_not_counted_unfinished(self):
        clock, scheduler = make_scheduler()

        def boom(session):
            raise ValueError("first")

        parked = scheduler.spawn(lambda s: s.sleep(100.0))
        scheduler.spawn(boom, at=1.0)
        never_started = scheduler.spawn(lambda s: s.sleep(1.0), at=50.0)
        with pytest.raises(ValueError):
            scheduler.run()
        assert parked.finished and never_started.finished
        assert never_started.started_at is None
        assert scheduler.unfinished == 0
        with pytest.raises(SchedulerError, match="killed sessions"):
            scheduler.run()

    def test_run_after_deadlock_says_so(self):
        clock, scheduler = make_scheduler()
        stuck = scheduler.spawn(lambda s: scheduler.suspend(s))
        with pytest.raises(SchedulerError, match="deadlock"):
            scheduler.run()
        assert stuck.finished and scheduler.unfinished == 0
        with pytest.raises(SchedulerError, match="killed sessions"):
            scheduler.run()

    def test_results_and_timestamps_recorded(self):
        clock, scheduler = make_scheduler()

        def body(session):
            session.sleep(2.0)
            return session.session_id * 10

        sessions = [scheduler.spawn(body, at=float(i)) for i in range(3)]
        scheduler.run()
        for index, session in enumerate(sessions):
            assert session.finished
            assert session.result == index * 10
            assert session.started_at == float(index)
            assert session.finished_at == float(index) + 2.0

    def test_run_not_reentrant(self):
        clock, scheduler = make_scheduler()

        def nested(session):
            scheduler.run()

        scheduler.spawn(nested)
        with pytest.raises(SchedulerError, match="reentrant"):
            scheduler.run()

    def test_clock_detached_after_run(self):
        clock, scheduler = make_scheduler()
        scheduler.spawn(lambda s: clock.advance(1.0))
        scheduler.run()
        # Plain clock semantics restored: a second scheduler may attach.
        other = SessionScheduler(clock)
        clock.attach_scheduler(other)
        clock.detach_scheduler(other)

    def test_handoffs_counted(self):
        clock, scheduler = make_scheduler()
        scheduler.spawn(lambda s: s.sleep(1.0))
        scheduler.run()
        # One activation at spawn time plus one at the sleep wakeup.
        assert scheduler.handoffs == 2


class _Gate:
    """An admission-style slot: a waiter suspends, a release resumes the
    oldest waiter after ``delay`` and transfers the slot to it."""

    def __init__(self, scheduler, delay):
        self.scheduler = scheduler
        self.delay = delay
        self.busy = False
        self.waiters = []

    def acquire(self, session):
        if self.busy:
            self.waiters.append(session)
            self.scheduler.suspend(session)
        else:
            self.busy = True

    def release(self):
        if self.waiters:
            self.scheduler.resume(self.waiters.pop(0), delay=self.delay)
        else:
            self.busy = False


def _interleaving_run():
    clock, scheduler = make_scheduler()
    rng = random.Random(35)
    gate = _Gate(scheduler, delay=0.25)
    trace = []

    def step(session, label):
        trace.append((clock.now(), session.name, label))

    def worker(session):
        step(session, "start")
        for index in range(3):
            # A coarse grid of durations, so equal wakeups recur.
            session.sleep(rng.choice((0.25, 0.5, 1.0)))
            step(session, f"slept{index}")
        gate.acquire(session)
        step(session, "admitted")
        clock.advance(0.5)
        gate.release()
        step(session, "released")

    def quick(session):
        # Sleeps far shorter than anything parked: next due every time.
        step(session, "start")
        for index in range(4):
            clock.advance(0.01)
            step(session, f"tick{index}")

    def spawner(session):
        step(session, "start")
        scheduler.spawn(worker, name="child", at=clock.now() + 0.25)
        scheduler.spawn(quick, name="child-quick")
        session.sleep(0.25)
        step(session, "end")

    scheduler.spawn(worker, name="w0")
    scheduler.spawn(worker, name="w1")
    scheduler.spawn(quick, name="quick", at=0.5)
    scheduler.spawn(spawner, name="spawner", at=0.5)
    scheduler.spawn(worker, name="w2", at=1.0)
    scheduler.spawn(lambda s: step(s, "only"), name="brief", at=1.0)
    scheduler.run()
    stamps = [(s.name, s.started_at, s.finished_at)
              for s in scheduler.sessions]
    return trace, stamps, scheduler.handoffs


def test_interleaving_trace_is_pinned():
    trace, stamps, handoffs = _interleaving_run()
    assert trace == [
        (0.0, "w0", "start"), (0.0, "w1", "start"),
        (0.5, "quick", "start"), (0.5, "spawner", "start"),
        (0.5, "w1", "slept0"), (0.5, "child-quick", "start"),
        (0.51, "quick", "tick0"), (0.51, "child-quick", "tick0"),
        (0.52, "quick", "tick1"), (0.52, "child-quick", "tick1"),
        (0.53, "quick", "tick2"), (0.53, "child-quick", "tick2"),
        (0.54, "quick", "tick3"), (0.54, "child-quick", "tick3"),
        (0.75, "child", "start"), (0.75, "spawner", "end"),
        (0.75, "w1", "slept1"), (1.0, "w2", "start"),
        (1.0, "brief", "only"), (1.0, "w0", "slept0"),
        (1.25, "w1", "slept2"), (1.25, "w1", "admitted"),
        (1.25, "w2", "slept0"), (1.5, "w0", "slept1"),
        (1.75, "child", "slept0"), (1.75, "w1", "released"),
        (1.75, "w2", "slept1"), (2.0, "w0", "slept2"),
        (2.0, "w0", "admitted"), (2.0, "w2", "slept2"),
        (2.5, "w0", "released"), (2.75, "child", "slept1"),
        (2.75, "w2", "admitted"), (3.25, "w2", "released"),
        (3.75, "child", "slept2"), (3.75, "child", "admitted"),
        (4.25, "child", "released"),
    ]
    assert stamps == [
        ("w0", 0.0, 2.5), ("w1", 0.0, 1.75), ("quick", 0.5, 0.54),
        ("spawner", 0.5, 0.75), ("w2", 1.0, 3.25), ("brief", 1.0, 1.0),
        ("child", 0.75, 4.25), ("child-quick", 0.5, 0.54),
    ]
    assert handoffs == 34


def _error_run():
    clock, scheduler = make_scheduler()
    gate = _Gate(scheduler, delay=0.0)
    trace = []

    def step(session, label):
        trace.append((clock.now(), session.name, label))

    def holder(session):
        step(session, "start")
        gate.acquire(session)
        try:
            session.sleep(5.0)
            step(session, "woke")
        finally:
            step(session, "unwound")

    def waiter(session):
        step(session, "start")
        try:
            gate.acquire(session)
            step(session, "admitted")
        finally:
            step(session, "unwound")

    def sleeper(session):
        step(session, "start")
        try:
            clock.advance(3.0)
            step(session, "woke")
        finally:
            step(session, "unwound")

    def done(session):
        step(session, "start")
        clock.advance(0.25)
        step(session, "end")

    def boom(session):
        step(session, "start")
        session.sleep(0.5)
        step(session, "raise")
        raise RuntimeError("boom")

    scheduler.spawn(holder, name="holder")
    scheduler.spawn(waiter, name="waiter", at=0.25)
    scheduler.spawn(sleeper, name="sleeper", at=0.5)
    scheduler.spawn(done, name="done", at=0.5)
    scheduler.spawn(boom, name="boom", at=1.0)
    scheduler.spawn(lambda s: step(s, "start"), name="late", at=10.0)
    with pytest.raises(RuntimeError, match="boom"):
        scheduler.run()
    stamps = [(s.name, s.started_at, s.finished_at, s.finished,
               type(s.error).__name__) for s in scheduler.sessions]
    return trace, stamps, scheduler.handoffs, scheduler.unfinished


def test_error_run_trace_is_pinned():
    trace, stamps, handoffs, unfinished = _error_run()
    # Nothing ran past the error; every survivor's finally clause ran at
    # the time of the error, in spawn order.
    assert trace == [
        (0.0, "holder", "start"), (0.25, "waiter", "start"),
        (0.5, "sleeper", "start"), (0.5, "done", "start"),
        (0.75, "done", "end"), (1.0, "boom", "start"),
        (1.5, "boom", "raise"), (1.5, "holder", "unwound"),
        (1.5, "waiter", "unwound"), (1.5, "sleeper", "unwound"),
    ]
    assert stamps == [
        ("holder", 0.0, 1.5, True, "NoneType"),
        ("waiter", 0.25, 1.5, True, "NoneType"),
        ("sleeper", 0.5, 1.5, True, "NoneType"),
        ("done", 0.5, 0.75, True, "NoneType"),
        ("boom", 1.0, 1.5, True, "RuntimeError"),
        ("late", None, 1.5, True, "NoneType"),
    ]
    assert handoffs == 7
    assert unfinished == 0


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """NaN compares false both ways, so one NaN wakeup would silently
    break the heap order; an infinite one would never come due."""

    @pytest.mark.parametrize("at", NON_FINITE)
    def test_spawn_at_non_finite_rejected(self, at):
        clock, scheduler = make_scheduler()
        with pytest.raises(SchedulerError):
            scheduler.spawn(lambda s: None, at=at)
        assert scheduler.sessions == []

    @pytest.mark.parametrize("seconds", NON_FINITE)
    def test_sleep_non_finite_rejected(self, seconds):
        clock, scheduler = make_scheduler()
        scheduler.spawn(lambda s: s.sleep(seconds))
        scheduler.spawn(lambda s: s.sleep(1.0))
        with pytest.raises(SchedulerError, match="cannot sleep"):
            scheduler.run()
        assert clock.now() == 0.0

    @pytest.mark.parametrize("when", NON_FINITE)
    def test_in_session_advance_to_non_finite_rejected(self, when):
        clock, scheduler = make_scheduler()
        scheduler.spawn(lambda s: clock.advance_to(when))
        with pytest.raises(ClockError):
            scheduler.run()

    @pytest.mark.parametrize("delay", NON_FINITE)
    def test_resume_non_finite_rejected(self, delay):
        clock, scheduler = make_scheduler()
        parked = []

        def blocked(session):
            parked.append(session)
            scheduler.suspend(session)

        def releaser(session):
            scheduler.resume(parked[0], delay=delay)

        scheduler.spawn(blocked)
        scheduler.spawn(releaser)
        with pytest.raises(SchedulerError, match="cannot resume"):
            scheduler.run()


class _CountingBaton:
    """Stands in for a session's raw lock and counts parks and wakes."""

    def __init__(self, made):
        self._lock = threading.Lock()
        self.acquires = 0
        self.releases = 0
        made.append(self)

    def acquire(self):
        self.acquires += 1
        return self._lock.acquire()

    def release(self):
        self.releases += 1
        self._lock.release()


class TestHandOffCounts:
    """Structural guards on the hand-off: counts, never timings."""

    @pytest.fixture
    def batons(self, monkeypatch):
        made = []
        monkeypatch.setattr(sessions_module, "allocate_lock",
                            lambda: _CountingBaton(made))
        return made

    @pytest.fixture
    def thread_starts(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return started

    def test_lone_sleeper_never_parks(self, batons, thread_starts):
        clock, scheduler = make_scheduler()

        def sleeper(session):
            for _ in range(1000):
                session.sleep(0.001)

        session = scheduler.spawn(sleeper)
        scheduler.run()
        driver, baton = batons
        # Each baton's one acquire is the hold it was made with.
        assert (baton.acquires, baton.releases) == (1, 0)
        assert (driver.acquires, driver.releases) == (2, 1)
        assert scheduler.handoffs == 1001
        assert thread_starts == ["session/s0"]
        assert session.finished and session.error is None

    def test_back_to_back_sessions_share_one_thread(self, thread_starts):
        clock, scheduler = make_scheduler()
        for index in range(50):
            scheduler.spawn(lambda s: s.sleep(0.5), at=float(index))
        scheduler.run()
        assert len(thread_starts) == 1
        assert [s.finished_at for s in scheduler.sessions] == [
            index + 0.5 for index in range(50)
        ]

    def test_finished_worker_starts_a_later_session(self, thread_starts):
        clock, scheduler = make_scheduler()

        def ticker(session):
            for _ in range(3):
                session.sleep(1.0)

        scheduler.spawn(ticker, name="ticker")
        brief = scheduler.spawn(lambda s: s.sleep(1.0), name="brief",
                                at=0.5)
        late = scheduler.spawn(lambda s: s.sleep(1.0), name="late", at=2.5)
        scheduler.run()
        # brief finished at 1.5 with ticker due next, so its worker waited
        # and ran late, which ticker's hand-off at 2.0 started.
        assert thread_starts == ["session/ticker", "session/brief"]
        assert late._thread is brief._thread
        assert (late.started_at, late.finished_at) == (2.5, 3.5)

    def test_ping_pong_wakes_one_baton_per_activation(self, batons):
        clock, scheduler = make_scheduler()

        def player(session):
            for _ in range(20):
                session.sleep(1.0)

        scheduler.spawn(player, name="ping")
        scheduler.spawn(player, name="pong", at=0.5)
        scheduler.run()
        driver, ping, pong, idle = batons
        # Two activations start a thread; every other one wakes exactly
        # one parked session, and the driver is woken once, at the end.
        assert scheduler.handoffs == 42
        assert ping.releases + pong.releases == scheduler.handoffs - 2
        assert (ping.acquires, pong.acquires) == (21, 21)
        assert driver.releases == 1
        # ping's worker finished first and waited idle until the run ended.
        assert (idle.acquires, idle.releases) == (2, 1)


class TestStrictHandOff:
    def test_no_lost_update_under_a_tiny_switch_interval(self):
        """Sessions are never runnable together: with the interpreter
        switching threads every microsecond, an unguarded read-modify-
        write of shared state would still lose updates if they were."""

        def run_once():
            clock, scheduler = make_scheduler()
            rng = random.Random(3)
            shared = {"count": 0}
            trace = []

            def body(session):
                for step in range(20):
                    for _ in range(50):
                        value = shared["count"]
                        shared["count"] = value + 1
                    trace.append((clock.now(), session.name, step))
                    session.sleep(rng.choice((0.1, 0.2, 0.3)))

            for index in range(64):
                scheduler.spawn(body, at=index * 0.05)
            scheduler.run()
            return shared["count"], trace, scheduler.handoffs

        reference = run_once()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = run_once()
        finally:
            sys.setswitchinterval(previous)
        assert stressed[0] == 64 * 20 * 50
        assert stressed == reference


class TestThreadStartFailure:
    def test_failed_start_fails_the_run_not_the_engine_call(
            self, monkeypatch):
        clock, scheduler = make_scheduler()
        start = threading.Thread.start
        calls = []

        def failing_start(thread):
            calls.append(thread.name)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        caught = []
        trace = []

        def retrying(session):
            # Engine retry loops catch Exception around clock advances.
            try:
                clock.advance(1.0)
                trace.append("advanced")
            except Exception as error:
                caught.append(error)

        first = scheduler.spawn(retrying, name="first")
        second = scheduler.spawn(lambda s: trace.append("second"),
                                 name="second", at=0.5)
        with pytest.raises(SchedulerError, match="second") as excinfo:
            scheduler.run()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert caught == [] and trace == []
        assert first.finished and first.error is None
        assert second.finished and second.started_at is None
        assert scheduler.unfinished == 0
        assert not first._thread.is_alive()
