"""Unit tests for the deterministic fault-schedule framework."""

import math

import pytest

from repro.objectstore import (
    ErrorStorm,
    FaultSchedule,
    LatencySpike,
    OutageWindow,
    RetryingObjectClient,
    RetryPolicy,
    STRONG,
    ThrottleStorm,
    named_schedule,
)
from repro.objectstore.faults import NO_FAULT
from repro.objectstore.s3sim import (
    ObjectStoreProfile,
    SimulatedObjectStore,
    TransientRequestError,
)
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


def quiet_profile(**overrides):
    fields = dict(
        name="s3",
        consistency=STRONG,
        transient_failure_probability=0.0,
        latency_jitter=0.0,
    )
    fields.update(overrides)
    return ObjectStoreProfile(**fields)


def make_store(schedule=None, seed=11, profile=None):
    return SimulatedObjectStore(
        profile or quiet_profile(),
        clock=VirtualClock(),
        rng=DeterministicRng(seed),
        fault_schedule=schedule,
    )


# --------------------------------------------------------------------- #
# event matching & composition
# --------------------------------------------------------------------- #

def test_event_matches_time_window_half_open():
    event = OutageWindow(1.0, 2.0)
    assert not event.matches("get", "k", None, 0.999)
    assert event.matches("get", "k", None, 1.0)
    assert event.matches("put", "k", None, 1.999)
    assert not event.matches("get", "k", None, 2.0)


def test_event_scoping_by_op_prefix_and_node():
    event = OutageWindow(0.0, 10.0, ops="get", prefix="a/", node="writer-1")
    assert event.matches("get", "a/1", "writer-1", 5.0)
    assert not event.matches("put", "a/1", "writer-1", 5.0)
    assert not event.matches("get", "b/1", "writer-1", 5.0)
    assert not event.matches("get", "a/1", "coordinator", 5.0)
    assert not event.matches("get", "a/1", None, 5.0)


def test_event_validation():
    with pytest.raises(ValueError):
        OutageWindow(5.0, 5.0)
    with pytest.raises(ValueError):
        OutageWindow(0.0, 1.0, ops="frobnicate")
    with pytest.raises(ValueError):
        ErrorStorm(0.0, 1.0, probability=1.5)
    with pytest.raises(ValueError):
        LatencySpike(0.0, 1.0, multiplier=0.0)
    with pytest.raises(ValueError):
        ThrottleStorm(0.0, 1.0, rate_factor=0.0)


@pytest.mark.parametrize("start, end", [
    (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
], ids=["nan-start", "nan-end", "nan-both"])
def test_nan_fault_window_is_refused(start, end):
    with pytest.raises(ValueError, match="fault window"):
        OutageWindow(start, end)
    # An open-ended window stays valid.
    assert OutageWindow(0.0, math.inf).matches("get", "k", None, 1e9)


def test_decide_composes_overlapping_events():
    schedule = FaultSchedule([
        LatencySpike(0.0, 10.0, multiplier=2.0),
        LatencySpike(0.0, 10.0, multiplier=3.0),
        ErrorStorm(0.0, 10.0, probability=0.1),
        ErrorStorm(0.0, 10.0, probability=0.4),
        ThrottleStorm(0.0, 10.0, rate_factor=0.5),
        ThrottleStorm(0.0, 10.0, rate_factor=0.25),
    ])
    decision = schedule.decide("get", "k", None, 5.0)
    assert decision.latency_multiplier == pytest.approx(6.0)
    assert decision.error_probability == pytest.approx(0.4)
    assert decision.throttle_factor == pytest.approx(0.25)
    assert not decision.outage
    # Outside every window the cheap shared NO_FAULT sentinel comes back.
    assert schedule.decide("get", "k", None, 20.0) is NO_FAULT


def test_schedule_horizon_and_named_schedules():
    storm = named_schedule("storm", start=5.0)
    assert storm.horizon == pytest.approx(45.0)
    assert len(storm.active_events(7.0)) == 1
    assert len(storm.active_events(20.0)) == 3
    with pytest.raises(ValueError):
        named_schedule("no-such-schedule")


# --------------------------------------------------------------------- #
# store integration
# --------------------------------------------------------------------- #

def test_outage_fails_every_matching_request():
    store = make_store(FaultSchedule([OutageWindow(0.0, 10.0)]))
    with pytest.raises(TransientRequestError) as info:
        store.put_range_at([("a/1", b"x")], 1.0)
    assert info.value.kind == "outage"
    # After the window the same key writes fine.
    done = store.put_range_at([("a/1", b"x")], 10.0)
    assert done > 10.0
    assert store.metrics.snapshot()["fault_outage_failures"] == 1


def test_outage_scoped_to_node_spares_other_nodes():
    store = make_store(FaultSchedule([OutageWindow(0.0, 10.0, node="w1")]))
    with pytest.raises(TransientRequestError):
        store.put_range_at([("a/1", b"x")], 1.0, node="w1")
    store.put_range_at([("a/2", b"x")], 1.0, node="coordinator")
    # Untagged requests are spared too.
    store.put_range_at([("a/3", b"x")], 1.0)


def test_error_storm_is_probabilistic_and_deterministic():
    def run(seed):
        store = make_store(
            FaultSchedule([ErrorStorm(0.0, 100.0, probability=0.5)]),
            seed=seed,
        )
        failures = 0
        now = 0.0
        for i in range(200):
            try:
                now = store.put_range_at([("a/%d" % i, b"x")], now)
            except TransientRequestError as error:
                assert error.kind == "storm"
                now = error.failed_at
                failures += 1
        return failures, store.metrics.snapshot()["fault_storm_failures"]

    failures, counted = run(seed=3)
    assert 50 < failures < 150  # ~0.5 of 200
    assert counted == failures
    assert run(seed=3) == (failures, counted)  # bit-identical replay
    assert run(seed=4)[0] != failures  # a different seed reshuffles


def test_latency_spike_slows_requests():
    plain = make_store()
    spiked = make_store(FaultSchedule([LatencySpike(0.0, 10.0, multiplier=8.0)]))
    __, base = plain.get_range_at(["a/1"], 0.0)
    __, slow = spiked.get_range_at(["a/1"], 0.0)
    assert slow == pytest.approx(base * 8.0)
    assert spiked.metrics.snapshot()["fault_latency_spikes"] == 1


def test_throttle_storm_cuts_per_prefix_rate():
    profile = quiet_profile(per_prefix_get_rate=100.0)
    plain = make_store(profile=profile)
    throttled = make_store(
        FaultSchedule([ThrottleStorm(0.0, 1000.0, rate_factor=0.1)]),
        profile=profile,
    )
    def drain(store):
        done = 0.0
        for i in range(300):
            __, finished = store.get_range_at(["hot/%d" % i], 0.0)
            done = max(done, finished)
        return done
    # 300 requests at 100/s burst-100: ~2 s normally, ~10x under the clamp.
    assert drain(throttled) > 5.0 * drain(plain)
    assert throttled.metrics.snapshot()["fault_throttled_requests"] == 300


def test_schedule_attachment_does_not_perturb_unrelated_rng_draws():
    """A schedule that never fires must leave the run bit-identical."""
    def timeline(schedule):
        store = make_store(
            schedule,
            profile=quiet_profile(latency_jitter=0.1),
        )
        times = []
        now = 0.0
        for i in range(20):
            now = store.put_range_at([("a/%d" % i, b"payload")], now)
            times.append(now)
        return times

    quiet = FaultSchedule([OutageWindow(1e6, 2e6)])  # far in the future
    assert timeline(None) == timeline(quiet)


def test_retrying_client_rides_out_outage_ending_mid_backoff():
    store = make_store(FaultSchedule([OutageWindow(0.0, 0.5)]))
    client = RetryingObjectClient(
        store,
        policy=RetryPolicy(max_attempts=12, initial_backoff=0.05,
                           backoff_multiplier=2.0, max_backoff=0.4),
    )
    done = client.put_at("a/1", b"x", 0.0)
    assert done > 0.5  # the successful attempt landed after the window
    assert client.metrics.snapshot()["put_retries"] >= 1
    data, __ = client.get_at("a/1", done)
    assert data == b"x"
