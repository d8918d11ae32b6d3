"""Unit tests for adjacent-key GET coalescing in the object client."""

import math

import pytest

from repro.objectstore import RetryingObjectClient, SimulatedObjectStore
from repro.objectstore.client import COALESCE_MAX_RUN
from repro.objectstore.consistency import STRONG, ConsistencyModel
from repro.objectstore.faults import FaultSchedule, OutageWindow
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.storage.keys import hashed_object_name
from repro.storage.locator import OBJECT_KEY_BASE

BASE = OBJECT_KEY_BASE + 1000


def make_client(coalesce=True, consistency=STRONG, fault_schedule=None,
                **client_kw):
    clock = VirtualClock()
    profile = ObjectStoreProfile(name="s3", consistency=consistency,
                                 transient_failure_probability=0.0,
                                 latency_jitter=0.0)
    store = SimulatedObjectStore(profile, clock=clock,
                                 fault_schedule=fault_schedule)
    client = RetryingObjectClient(
        store, max_run=COALESCE_MAX_RUN if coalesce else 1, **client_kw)
    return client, store, clock


def load_run(store, count, start=BASE, size=64):
    """Store ``count`` objects under consecutive keys; returns their names."""
    names = [hashed_object_name(start + i) for i in range(count)]
    for i, name in enumerate(names):
        store.put(name, bytes([i % 256]) * size)
    return names


def test_adjacent_keys_coalesce_into_ranged_gets():
    client, store, __ = make_client(coalesce=True)
    names = load_run(store, 40)
    results = client.get_many(names)
    assert all(len(results[name]) == 64 for name in names)
    snapshot = store.metrics.snapshot()
    # 40 adjacent keys at a max run of 16 -> ceil(40/16) = 3 requests.
    assert snapshot["get_requests"] == math.ceil(40 / 16)
    assert snapshot["ranged_get_requests"] == 3
    assert snapshot["ranged_get_keys"] == 40


def test_coalescing_honours_max_run():
    client, store, __ = make_client(coalesce=True)
    names = load_run(store, 2 * COALESCE_MAX_RUN + 1)
    client.get_many(names)
    # Two full runs and the one key that did not fit: no request carries
    # more than COALESCE_MAX_RUN keys.
    snapshot = store.metrics.snapshot()
    assert snapshot["get_requests"] == 3
    assert snapshot["ranged_get_requests"] == 2
    assert snapshot["ranged_get_keys"] == 2 * COALESCE_MAX_RUN


def test_key_gaps_split_runs():
    client, store, __ = make_client(coalesce=True)
    first = load_run(store, 5, start=BASE)
    second = load_run(store, 5, start=BASE + 100)
    results = client.get_many(first + second)
    assert len(results) == 10
    assert store.metrics.snapshot()["ranged_get_requests"] == 2


def test_unordered_input_still_coalesces():
    client, store, __ = make_client(coalesce=True)
    names = load_run(store, 8)
    shuffled = names[::2] + names[1::2]
    results = client.get_many(shuffled)
    assert set(results) == set(names)
    assert store.metrics.snapshot()["get_requests"] == 1


def test_unparseable_names_fall_back_to_single_gets():
    client, store, __ = make_client(coalesce=True)
    store.put("meta/catalog", b"m")
    names = load_run(store, 3)
    results = client.get_many(names + ["meta/catalog"])
    assert results["meta/catalog"] == b"m"
    snapshot = store.metrics.snapshot()
    # One range for the run, one plain get for the unkeyed name.
    assert snapshot["ranged_get_requests"] == 1
    assert snapshot["get_requests"] == 2


def test_singleton_runs_use_plain_gets():
    client, store, __ = make_client(coalesce=True)
    names = [hashed_object_name(BASE), hashed_object_name(BASE + 50)]
    for name in names:
        store.put(name, b"x")
    client.get_many(names)
    snapshot = store.metrics.snapshot()
    assert snapshot["get_requests"] == 2
    assert snapshot.get("ranged_get_requests", 0) == 0


def test_coalescing_returns_same_data_as_plain_path():
    plain_client, plain_store, __ = make_client(coalesce=False)
    ranged_client, ranged_store, __ = make_client(coalesce=True)
    plain = plain_client.get_many(load_run(plain_store, 20))
    ranged = ranged_client.get_many(load_run(ranged_store, 20))
    assert plain == ranged
    assert (ranged_store.metrics.snapshot()["get_requests"]
            < plain_store.metrics.snapshot()["get_requests"])


def test_ranged_get_charges_one_token_per_range():
    client, store, __ = make_client(coalesce=True)
    names = load_run(store, 16)
    client.get_many(names)
    # One billed request for the whole range (the cost win the paper's
    # request-dominated bill makes interesting).
    assert store.metrics.snapshot()["get_requests"] == 1


def test_coalesced_range_retries_whole_range_on_fault():
    client, store, clock = make_client(coalesce=True)
    names = load_run(store, 8)
    outage_end = clock.now() + 0.02
    store.fault_schedule = FaultSchedule(
        [OutageWindow(start=clock.now(), end=outage_end, ops=("get",))]
    )
    results = client.get_many(names)
    assert all(results[name] is not None for name in names)
    assert client.metrics.snapshot()["get_retries"] >= 1
    # The retry re-issued the whole range: both attempts were ranged.
    assert store.metrics.snapshot()["ranged_get_requests"] >= 2
    assert clock.now() > outage_end  # backed off past the outage window


def test_invisible_keys_fall_back_to_single_get():
    eventual = ConsistencyModel(invisible_probability=1.0,
                                mean_lag_seconds=0.2)
    client, store, clock = make_client(coalesce=True, consistency=eventual)
    names = load_run(store, 4)
    # Immediately after the puts the objects are not yet visible; the
    # ranged get returns None per key and the client falls back to the
    # single-get not-found retry machinery until visibility propagates.
    results = client.get_many(names)
    assert all(results[name] is not None for name in names)
    assert store.metrics.snapshot()["ranged_get_requests"] >= 1
    assert client.metrics.snapshot()["not_found_retries"] >= 1


def test_get_many_off_by_default():
    client, __, __ = make_client(coalesce=False)
    assert client.max_run == 1


def test_run_length_must_be_positive():
    __, store, __ = make_client()
    with pytest.raises(ValueError):
        RetryingObjectClient(store, max_run=0)
