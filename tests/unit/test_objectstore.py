"""Unit tests for object stores: consistency model, S3 simulator."""

import inspect

import pytest

from repro.costs.meter import CostMeter
from repro.objectstore import (
    ConsistencyModel,
    ReplicatedObjectStore,
    SimulatedObjectStore,
    STRONG,
)
from repro.objectstore.consistency import VersionedObject
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


class TestVersionedObject:
    def test_visibility_ordering(self):
        obj = VersionedObject()
        obj.add_version(1.0, b"v1")
        obj.add_version(3.0, b"v2")
        assert obj.visible_data(0.5) is None
        assert obj.visible_data(1.5) == b"v1"
        assert obj.visible_data(3.5) == b"v2"

    def test_stale_read_detection(self):
        obj = VersionedObject()
        obj.add_version(1.0, b"v1")
        obj.add_version(5.0, b"v2")
        assert obj.is_stale_read(2.0)
        assert not obj.is_stale_read(6.0)

    def test_tombstone(self):
        obj = VersionedObject()
        obj.add_version(1.0, b"v1")
        obj.add_version(2.0, None)
        assert obj.visible_data(1.5) == b"v1"
        assert obj.visible_data(2.5) is None


class TestConsistencyModel:
    def test_strong_never_lags(self):
        rng = DeterministicRng(0)
        assert all(STRONG.sample_lag(rng) == 0.0 for __ in range(100))

    def test_eventual_sometimes_lags(self):
        model = ConsistencyModel(invisible_probability=0.5,
                                 mean_lag_seconds=0.1)
        rng = DeterministicRng(0)
        lags = [model.sample_lag(rng) for __ in range(200)]
        assert any(lag > 0 for lag in lags)
        assert any(lag == 0 for lag in lags)


def make_store(consistency=STRONG, meter=None, **profile_overrides):
    profile = ObjectStoreProfile(
        name="test-s3",
        consistency=consistency,
        transient_failure_probability=0.0,
        latency_jitter=0.0,
        **profile_overrides,
    )
    return SimulatedObjectStore(
        profile, clock=VirtualClock(), rng=DeterministicRng(0), meter=meter
    )


class TestSimulatedStore:
    def test_put_get_advances_clock(self):
        store = make_store()
        store.put("ab/1", b"data")
        after_put = store.clock.now()
        assert after_put > 0
        assert store.get("ab/1") == b"data"
        assert store.clock.now() > after_put

    def test_invisible_object_reports_missing(self):
        model = ConsistencyModel(invisible_probability=1.0,
                                 mean_lag_seconds=10.0)
        store = make_store(consistency=model)
        done = store.put_range_at([("k/1", b"x")], 0.0)
        results, __ = store.get_range_at(["k/1"], done)
        data, __ = results["k/1"]
        assert data is None
        assert store.metrics.snapshot()["get_misses"] == 1

    def test_eventual_visibility_after_lag(self):
        model = ConsistencyModel(invisible_probability=1.0,
                                 mean_lag_seconds=0.01)
        store = make_store(consistency=model)
        store.put_range_at([("k/1", b"x")], 0.0)
        results, __ = store.get_range_at(["k/1"], 1000.0)
        data, __ = results["k/1"]
        assert data == b"x"

    def test_overwrite_counted(self):
        store = make_store()
        store.put("k/1", b"a")
        store.put("k/1", b"b")
        assert store.metrics.snapshot()["overwrites"] == 1

    def test_prefix_throttling_delays_requests(self):
        store = make_store(per_prefix_put_rate=10.0)
        last = 0.0
        for i in range(50):
            last = store.put_range_at([("same/%d" % i, b"x")], 0.0)
        # 50 puts on one prefix at 10/s: several seconds of throttle.
        assert last > 3.0
        assert store.throttled_requests() > 0

    def test_distinct_prefixes_avoid_throttle(self):
        store = make_store(per_prefix_put_rate=10.0)
        last = 0.0
        for i in range(50):
            last = store.put_range_at([("p%d/k" % i, b"x")], 0.0)
        assert last < 1.0

    def test_request_costs_metered(self):
        meter = CostMeter()
        store = make_store(meter=meter)
        store.put("a/1", b"x")
        store.get("a/1")
        assert meter.request_cost("s3") == pytest.approx(
            0.005 / 1000 + 0.0004 / 1000
        )

    def test_delete_makes_object_invisible(self):
        store = make_store()
        store.put("a/1", b"x")
        store.delete("a/1")
        assert not store.exists("a/1")
        assert store.stored_bytes() == 0

    def test_stored_bytes_counts_latest_versions(self):
        store = make_store()
        store.put("a/1", b"12345")
        store.put("a/2", b"123")
        assert store.stored_bytes() == 8

    def test_list_keys_visible_only(self):
        store = make_store()
        store.put("a/1", b"x")
        store.put("b/2", b"y")
        store.delete("b/2")
        assert list(store.list_keys()) == ["a/1"]


def _timed_api(cls):
    """``{name: parameters}`` of a store class's public ``*_at`` methods."""
    return {
        name: [
            (param.name, param.kind, param.default)
            for param in inspect.signature(member).parameters.values()
        ]
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if name.endswith("_at") and not name.startswith("_")
    }


def test_replicated_store_mirrors_the_timed_api():
    """A verb added to one store class cannot be forgotten on the other:
    the client talks to either through the same four timed methods."""
    simulated = _timed_api(SimulatedObjectStore)
    assert sorted(simulated) == [
        "delete_at", "exists_at", "get_range_at", "put_range_at",
    ]
    assert _timed_api(ReplicatedObjectStore) == simulated
