"""Unit tests for the event-driven session scheduler."""

import pytest

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
