"""Unit tests for the retrying object client (read-after-write machinery)."""

import pytest

from repro.objectstore import (
    CircuitBreakerConfig,
    CircuitOpenError,
    ConsistencyModel,
    FaultSchedule,
    HedgePolicy,
    LatencySpike,
    OutageWindow,
    OverwriteForbiddenError,
    RetriesExhaustedError,
    RetryingObjectClient,
    RetryPolicy,
    SimulatedObjectStore,
    STRONG,
)
from repro.objectstore.client import COALESCE_MAX_RUN
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE


def make_client(consistency=STRONG, failure_probability=0.0,
                policy=None, enforce=True, schedule=None,
                breaker=None, hedge=None, seed=3):
    profile = ObjectStoreProfile(
        name="s3",
        consistency=consistency,
        transient_failure_probability=failure_probability,
        latency_jitter=0.0,
    )
    store = SimulatedObjectStore(profile, clock=VirtualClock(),
                                 rng=DeterministicRng(seed),
                                 fault_schedule=schedule)
    return RetryingObjectClient(
        store, policy=policy or RetryPolicy(), enforce_unique_keys=enforce,
        breaker=breaker, hedge=hedge,
    )


def test_put_get_roundtrip():
    client = make_client()
    client.put("a/1", b"payload")
    assert client.get("a/1") == b"payload"


def test_never_write_twice_enforced():
    client = make_client()
    client.put("a/1", b"x")
    with pytest.raises(OverwriteForbiddenError):
        client.put("a/1", b"y")
    assert client.was_written("a/1")


def test_overwrite_allowed_when_disabled():
    client = make_client(enforce=False)
    client.put("a/1", b"x")
    client.put("a/1", b"y")  # ablation mode: update in place


def test_read_retries_until_visible():
    """Eventual consistency turns into read-after-write via retries."""
    lagging = ConsistencyModel(invisible_probability=1.0,
                               mean_lag_seconds=0.02)
    client = make_client(consistency=lagging)
    client.put("a/1", b"x")
    assert client.get("a/1") == b"x"
    assert client.metrics.snapshot().get("not_found_retries", 0) >= 1


def test_read_gives_up_after_budget():
    lagging = ConsistencyModel(invisible_probability=1.0,
                               mean_lag_seconds=10_000.0)
    client = make_client(
        consistency=lagging,
        policy=RetryPolicy(max_attempts=3, initial_backoff=0.001,
                           max_backoff=0.001),
    )
    client.put("a/1", b"x")
    with pytest.raises(RetriesExhaustedError):
        client.get("a/1")


def test_missing_key_eventually_raises():
    client = make_client(
        policy=RetryPolicy(max_attempts=2, initial_backoff=0.001)
    )
    with pytest.raises(RetriesExhaustedError):
        client.get("never/written")


def test_transient_put_failures_are_retried():
    client = make_client(failure_probability=0.3)
    for i in range(50):
        client.put(f"a/{i}", b"x")
    assert client.metrics.snapshot().get("put_retries", 0) > 0
    for i in range(50):
        assert client.get(f"a/{i}") == b"x"


def test_get_many_returns_all():
    client = make_client()
    items = [(f"k/{i}", bytes([i])) for i in range(20)]
    client.put_many(items)
    result = client.get_many([key for key, __ in items])
    assert result == dict(items)


def test_get_many_parallelism_beats_serial():
    serial = make_client()
    for i in range(64):
        serial.put(f"k/{i}", b"x" * 100)
    serial_start = serial.clock.now()
    for i in range(64):
        serial.get(f"k/{i}")
    serial_elapsed = serial.clock.now() - serial_start

    parallel = make_client()
    parallel.put_many([(f"k/{i}", b"x" * 100) for i in range(64)])
    parallel_start = parallel.clock.now()
    parallel.get_many([f"k/{i}" for i in range(64)], window=32)
    parallel_elapsed = parallel.clock.now() - parallel_start
    assert parallel_elapsed < serial_elapsed / 4


def test_delete_many():
    client = make_client()
    client.put_many([(f"k/{i}", b"x") for i in range(10)])
    client.delete_many([f"k/{i}" for i in range(10)])
    assert client.store.object_count() == 0


def test_backoff_schedule():
    policy = RetryPolicy(initial_backoff=0.01, backoff_multiplier=2.0,
                         max_backoff=0.05)
    assert policy.backoff(1) == pytest.approx(0.01)
    assert policy.backoff(2) == pytest.approx(0.02)
    assert policy.backoff(10) == pytest.approx(0.05)


def test_invalid_configuration():
    with pytest.raises(ValueError):
        make_client(policy=RetryPolicy(max_attempts=0))


# --------------------------------------------------------------------- #
# never-write-twice ledger vs failed puts (regression)
# --------------------------------------------------------------------- #

def test_failed_put_does_not_poison_write_ledger():
    """A put that exhausted its retries must leave the key unwritten.

    The ledger previously recorded the key *before* attempting the store
    write, so a put that never landed still blocked every later legitimate
    re-put with OverwriteForbiddenError.
    """
    client = make_client(
        schedule=FaultSchedule([OutageWindow(0.0, 1.0)]),
        policy=RetryPolicy(max_attempts=3, initial_backoff=0.001,
                           max_backoff=0.001),
    )
    with pytest.raises(RetriesExhaustedError):
        client.put("a/1", b"x")
    assert not client.was_written("a/1")
    # Past the outage the rollback-and-retry path writes the key cleanly.
    client.clock.advance_to(1.0)
    client.put("a/1", b"x")
    assert client.was_written("a/1")
    assert client.get("a/1") == b"x"


# --------------------------------------------------------------------- #
# delete/HEAD retry loops
# --------------------------------------------------------------------- #

def test_delete_retries_transient_failures():
    client = make_client(failure_probability=0.3)
    client.put_many([(f"k/{i}", b"x") for i in range(30)])
    client.delete_many([f"k/{i}" for i in range(30)])
    assert client.store.object_count() == 0
    assert client.metrics.snapshot().get("delete_retries", 0) > 0


def test_exists_retries_transient_failures():
    client = make_client(failure_probability=0.3)
    client.put("a/1", b"x")
    for __ in range(20):
        assert client.exists("a/1")
    assert not client.exists("a/never")
    assert client.metrics.snapshot().get("head_retries", 0) > 0


def test_delete_gives_up_during_outage():
    client = make_client(
        schedule=FaultSchedule([OutageWindow(0.0, 10.0)]),
        policy=RetryPolicy(max_attempts=3, initial_backoff=0.001,
                           max_backoff=0.001),
    )
    with pytest.raises(RetriesExhaustedError):
        client.delete("a/1")


# --------------------------------------------------------------------- #
# deadline budget
# --------------------------------------------------------------------- #

def test_deadline_budget_bounds_retry_time():
    lagging = ConsistencyModel(invisible_probability=1.0,
                               mean_lag_seconds=10_000.0)
    client = make_client(
        consistency=lagging,
        policy=RetryPolicy(max_attempts=1000, initial_backoff=0.05,
                           max_backoff=0.2, deadline=2.0),
    )
    client.put("a/1", b"x")
    start = client.clock.now()
    with pytest.raises(RetriesExhaustedError) as info:
        client.get("a/1")
    assert info.value.deadline == pytest.approx(2.0)
    assert "deadline" in str(info.value)
    assert client.metrics.snapshot()["deadline_expirations"] == 1
    # Far fewer than max_attempts ran: the budget cut the loop short.
    assert client.metrics.snapshot()["not_found_retries"] < 100
    assert client.clock.now() == start  # timed API never advanced the clock


def _adjacent_names(count):
    return [hashed_object_name(OBJECT_KEY_BASE + 100 + i)
            for i in range(count)]


@pytest.mark.parametrize("coalesce", [False, True])
def test_deadline_is_per_logical_put_not_per_fallback(coalesce):
    """A coalesced batch and its per-key fallback share ONE deadline
    budget: coalescing must not buy a PUT extra retry time."""
    client = make_client(
        policy=RetryPolicy(deadline=2.5, initial_backoff=1.0,
                           max_backoff=1.0),
        schedule=FaultSchedule([OutageWindow(0.0, 100.0, ops=("put",))]),
    )
    client.max_run = COALESCE_MAX_RUN if coalesce else 1
    items = [(name, b"x") for name in _adjacent_names(4)]
    with pytest.raises(RetriesExhaustedError) as info:
        client.put_many_at(items, 0.0, window=1)
    assert info.value.deadline == pytest.approx(2.5)
    # Three requests (~0, ~1 and ~2 virtual seconds in) fit the budget;
    # the fourth would start past it.
    assert client.store.metrics.snapshot()["put_requests"] == 3
    assert client.metrics.snapshot()["deadline_expirations"] == 1


def test_range_get_fallback_inherits_the_deadline():
    lagging = ConsistencyModel(invisible_probability=1.0,
                               mean_lag_seconds=10_000.0)
    client = make_client(
        consistency=lagging,
        policy=RetryPolicy(max_attempts=1000, initial_backoff=0.5,
                           max_backoff=0.5, deadline=2.0),
        schedule=FaultSchedule([OutageWindow(1.0, 2.4, ops=("get",))]),
    )
    client.max_run = COALESCE_MAX_RUN
    names = _adjacent_names(3)
    for name in names:
        client.put(name, b"x")
    with pytest.raises(RetriesExhaustedError) as info:
        client.get_many_at(names, 1.0)
    assert info.value.deadline == pytest.approx(2.0)
    # The range spent ~1.5 s of the budget riding out the outage; the
    # single-GET fallback for the invisible keys only gets the remainder.
    assert client.metrics.snapshot()["not_found_retries"] <= 2


def test_decorrelated_jitter_stays_within_bounds():
    policy = RetryPolicy(initial_backoff=0.01, max_backoff=0.5,
                         jitter="decorrelated")
    rng = DeterministicRng(7)
    previous = None
    delays = []
    for attempt in range(1, 40):
        previous = policy.backoff(attempt, rng=rng, previous=previous)
        delays.append(previous)
    assert all(0.01 <= d <= 0.5 for d in delays)
    assert len(set(delays)) > 10  # actually jittered, not a fixed ladder
    # Same substream → same schedule (bit-identical replays).
    rng2 = DeterministicRng(7)
    replay = []
    previous = None
    for attempt in range(1, 40):
        previous = policy.backoff(attempt, rng=rng2, previous=previous)
        replay.append(previous)
    assert replay == delays


def test_invalid_jitter_and_deadline_rejected():
    with pytest.raises(ValueError):
        RetryPolicy(jitter="thundering-herd")
    with pytest.raises(ValueError):
        RetryPolicy(deadline=-1.0)


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #

def breaker_client(**kwargs):
    return make_client(
        schedule=FaultSchedule([OutageWindow(0.0, 10.0)]),
        policy=RetryPolicy(max_attempts=3, initial_backoff=0.01,
                           max_backoff=0.02),
        breaker=CircuitBreakerConfig(failure_threshold=3, reset_timeout=5.0),
        **kwargs,
    )


def test_breaker_opens_after_consecutive_failures_then_fails_fast():
    client = breaker_client()
    # Three failed attempts inside one put trip the breaker.
    with pytest.raises(RetriesExhaustedError):
        client.put_at("a/1", b"x", 0.0)
    assert client.breaker_state(0.5) == "open"
    snap = client.metrics.snapshot()
    assert snap["breaker_opened"] == 1
    assert snap["breaker_state"] == 2.0
    # While open, requests fail fast without touching the store.
    puts_before = client.store.metrics.snapshot()["put_requests"]
    with pytest.raises(CircuitOpenError) as info:
        client.put_at("a/2", b"x", 0.5)
    assert info.value.retry_at > 0.5
    assert client.store.metrics.snapshot()["put_requests"] == puts_before
    assert client.metrics.snapshot()["breaker_fast_failures"] == 1


def test_breaker_half_open_probe_closes_after_recovery():
    client = breaker_client()
    with pytest.raises(RetriesExhaustedError):
        client.put_at("a/1", b"x", 0.0)
    # Past the reset timeout AND the outage: the probe succeeds and closes.
    done = client.put_at("a/2", b"x", 12.0)
    assert done > 12.0
    assert client.breaker_state(done) == "closed"
    snap = client.metrics.snapshot()
    assert snap["breaker_half_open"] == 1
    assert snap["breaker_closed"] == 1
    assert snap["breaker_state"] == 0.0
    # The transition series records (time, state-code) samples in order.
    codes = [code for __, code in client.metrics.series("breaker_transitions").samples]
    assert codes == [2.0, 1.0, 0.0]  # open → half-open → closed


def test_breaker_half_open_probe_failure_reopens():
    client = breaker_client()
    with pytest.raises(RetriesExhaustedError):
        client.put_at("a/1", b"x", 0.0)
    # Reset timeout elapsed but the outage is still on: the half-open probe
    # fails, reopening the breaker; the next attempt then fails fast.
    with pytest.raises(CircuitOpenError):
        client.put_at("a/2", b"x", 6.0)
    snap = client.metrics.snapshot()
    assert snap["breaker_opened"] >= 2
    assert client.breaker_state(6.5) == "open"


def test_breaker_bypass_lets_commit_writes_through():
    client = breaker_client()
    with pytest.raises(RetriesExhaustedError):
        client.put_at("a/1", b"x", 0.0)
    assert client.breaker_state(0.5) == "open"
    # A bypassing (commit-critical) write ignores fail-fast; it still fails
    # during the outage but keeps retrying the real store.
    with pytest.raises(RetriesExhaustedError):
        client.put_at("commit/1", b"x", 0.5, bypass_breaker=True)
    # After the outage a bypassing success closes the breaker outright.
    client.put_at("commit/2", b"x", 20.0, bypass_breaker=True)
    assert client.breaker_state(20.5) == "closed"


# --------------------------------------------------------------------- #
# hedged GETs
# --------------------------------------------------------------------- #

def test_hedged_get_fires_and_wins_on_slow_primary():
    # The primary read is issued into a brief spiked outage: its (failed)
    # completion lands past the hedge delay, so the hedge fires after the
    # window lapses and rescues the read without a retry round.
    client = make_client(
        schedule=FaultSchedule([
            OutageWindow(0.0, 0.03, ops="get"),
            LatencySpike(0.0, 0.03, multiplier=100.0, ops="get"),
        ]),
        hedge=HedgePolicy(initial_delay=0.05),
    )
    client.put("a/1", b"payload")
    data, done = client.get_at("a/1", 0.0)
    assert data == b"payload"
    snap = client.metrics.snapshot()
    assert snap["hedged_gets"] == 1
    assert snap["hedge_wins"] == 1
    assert snap.get("get_retries", 0) == 0  # the hedge preempted the retry
    # The winning completion is the hedge's, far below the spiked primary.
    assert done < 1.0


def test_hedge_not_fired_for_fast_reads():
    client = make_client(hedge=HedgePolicy(initial_delay=0.05))
    client.put("a/1", b"x")
    client.get("a/1")
    assert client.metrics.snapshot().get("hedged_gets", 0) == 0
