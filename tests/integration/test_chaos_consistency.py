"""Consistency-model edge cases under scheduled faults (chaos satellites).

The retry loop has to cope with *two* sources of "no data": scheduled
request failures (outages, storms) and eventual-consistency invisibility.
These tests pin the interplay — and the per-node partition injection on a
multiplex cluster.
"""

import pytest

from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import DatabaseConfig
from repro.objectstore import (
    ConsistencyModel,
    ErrorStorm,
    FaultSchedule,
    OutageWindow,
    RetriesExhaustedError,
    RetryingObjectClient,
    RetryPolicy,
    SimulatedObjectStore,
)
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng

MIB = 1024 * 1024


def make_client(consistency, schedule, policy):
    profile = ObjectStoreProfile(
        name="s3",
        consistency=consistency,
        transient_failure_probability=0.0,
        latency_jitter=0.0,
    )
    store = SimulatedObjectStore(profile, clock=VirtualClock(),
                                 rng=DeterministicRng(9),
                                 fault_schedule=schedule)
    return RetryingObjectClient(store, policy=policy)


def test_read_survives_outage_ending_mid_backoff():
    """A lagging write behind a GET outage still becomes readable.

    The first attempts fail inside the outage window; the window lapses
    in the middle of the backoff sequence and a later attempt — by then
    past the visibility lag too — returns the data.
    """
    client = make_client(
        consistency=ConsistencyModel(invisible_probability=1.0,
                                     mean_lag_seconds=0.05),
        schedule=FaultSchedule([OutageWindow(0.0, 0.5, ops="get")]),
        policy=RetryPolicy(max_attempts=20, initial_backoff=0.05,
                           backoff_multiplier=2.0, max_backoff=0.3),
    )
    client.put("a/1", b"laggy")  # puts are unaffected (ops="get")
    data, done = client.get_at("a/1", client.clock.now())
    assert data == b"laggy"
    assert done > 0.5  # the winning attempt ran after the outage
    snap = client.metrics.snapshot()
    assert snap.get("get_retries", 0) >= 1  # failed inside the window


def test_never_visible_key_hits_deadline_budget_during_storm():
    """Invisibility + an error storm: the deadline bounds the total wait.

    The key never becomes visible, and a 30% storm makes a third of the
    probes fail outright; the per-operation deadline cuts the retry loop
    regardless of which path each attempt took, and the error records it.
    """
    client = make_client(
        consistency=ConsistencyModel(invisible_probability=1.0,
                                     mean_lag_seconds=1e6),
        schedule=FaultSchedule([ErrorStorm(0.0, 1e6, probability=0.3)]),
        policy=RetryPolicy(max_attempts=500, initial_backoff=0.05,
                           max_backoff=0.2, deadline=1.5),
    )
    client.put("a/1", b"x")
    start = client.clock.now()
    with pytest.raises(RetriesExhaustedError) as info:
        client.get("a/1")
    assert info.value.deadline == pytest.approx(1.5)
    assert client.metrics.snapshot()["deadline_expirations"] == 1
    # Both failure modes were exercised before the budget ran out.
    mixed = client.metrics.snapshot()
    assert mixed.get("not_found_retries", 0) + mixed.get("get_retries", 0) < 500
    assert client.clock.now() == start  # the failed read consumed no clock


def test_injected_node_outage_partitions_one_node_only():
    """A node-scoped outage window models an asymmetric network partition:
    the named node loses the bucket while everyone else keeps it."""
    mx = Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024,
                       ocm_capacity_bytes=32 * MIB),
        MultiplexConfig(writers=1, readers=1,
                        secondary_buffer_bytes=4 * MIB,
                        secondary_ocm_bytes=16 * MIB),
    )
    coordinator = mx.coordinator
    coordinator.object_client.put("shared/obj", b"shared-data")

    now = coordinator.clock.now()
    coordinator.object_store.fault_schedule = FaultSchedule(
        [OutageWindow(now, now + 5.0, node="writer-1")])

    writer = mx.node("writer-1")
    with pytest.raises(RetriesExhaustedError):
        writer.client.get_at("shared/obj", now)

    # The coordinator and the reader still see the bucket.
    assert coordinator.object_client.get("shared/obj") == b"shared-data"
    reader_data, __ = mx.node("reader-1").client.get_at("shared/obj", now)
    assert reader_data == b"shared-data"

    # Once the window lapses the partitioned node recovers on its own.
    data, __ = writer.client.get_at("shared/obj", now + 5.0)
    assert data == b"shared-data"
