"""Unit tests for multi-region replication (ReplicatedObjectStore)."""

import pytest

from repro.objectstore import (
    RetryingObjectClient,
    STRONG,
)
from repro.objectstore.faults import (
    FaultSchedule,
    RegionOutage,
    ThrottleStorm,
)
from repro.objectstore.replicated import (
    ReplicatedObjectStore,
    ReplicationConfig,
    StalenessViolation,
    build_replicated_store,
)
from repro.objectstore.s3sim import ObjectStoreProfile, SimulatedObjectStore
from repro.sim.clock import VirtualClock
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash
from repro.sim.rng import DeterministicRng
from tests.conftest import make_db

HORIZON = 10.0


def quiet_profile(**overrides):
    fields = dict(
        name="s3",
        consistency=STRONG,
        transient_failure_probability=0.0,
        latency_jitter=0.0,
    )
    fields.update(overrides)
    return ObjectStoreProfile(**fields)


def make_replicated(mean_lag=0.5, horizon=HORIZON, regions=("a", "b"),
                    schedule=None, seed=7, region_lags=None):
    primary = SimulatedObjectStore(
        quiet_profile(),
        clock=VirtualClock(),
        rng=DeterministicRng(seed),
        fault_schedule=schedule,
    )
    config = ReplicationConfig(
        regions=regions,
        mean_lag_seconds=mean_lag,
        staleness_horizon=horizon,
        region_lags=region_lags,
    )
    return build_replicated_store(
        config, primary, DeterministicRng(seed, "replication-test")
    )


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #

def test_config_requires_two_unique_regions():
    with pytest.raises(ValueError):
        ReplicationConfig(regions=("solo",))
    with pytest.raises(ValueError):
        ReplicationConfig(regions=("a", "a"))


def test_config_rejects_bad_lag_and_horizon():
    with pytest.raises(ValueError):
        ReplicationConfig(staleness_horizon=0.0)
    with pytest.raises(ValueError):
        ReplicationConfig(mean_lag_seconds=-1.0)
    with pytest.raises(ValueError):
        ReplicationConfig(region_lags=(("nowhere", 1.0),))
    with pytest.raises(ValueError):
        ReplicationConfig(
            regions=("a", "b"), region_lags=(("b", -2.0),)
        )


@pytest.mark.parametrize("field", [
    {"staleness_horizon": float("nan")},
    {"mean_lag_seconds": float("nan")},
    {"regions": ("a", "b"), "region_lags": (("b", float("nan")),)},
], ids=["staleness_horizon", "mean_lag_seconds", "region_lags"])
def test_config_rejects_nan(field):
    # NaN fails every ordered comparison, so a sign check alone lets it in.
    with pytest.raises(ValueError, match="finite"):
        ReplicationConfig(**field)


def test_per_region_lag_override():
    config = ReplicationConfig(
        regions=("a", "b", "c"),
        mean_lag_seconds=0.5,
        region_lags=(("c", 4.0),),
    )
    assert config.lag_for("b") == 0.5
    assert config.lag_for("c") == 4.0


def test_secondaries_must_match_config_regions():
    store = make_replicated()
    with pytest.raises(ValueError):
        ReplicatedObjectStore(
            store.config, store.primary, {"wrong": store.store_for("b")}
        )


# --------------------------------------------------------------------- #
# asynchronous convergence & last-writer-wins
# --------------------------------------------------------------------- #

def test_put_converges_to_secondary_within_horizon():
    store = make_replicated()
    store.put("user/1", b"payload")
    secondary = store.store_for("b")
    assert store.pending_count() == 1
    # The bound: by op_time + horizon the secondary has converged.
    store.clock.advance(HORIZON)
    store.pump(store.clock.now())
    assert store.pending_count() == 0
    assert secondary.latest_data("user/1") == b"payload"
    assert store.check_staleness(store.clock.now()) == []


def test_newer_put_replaces_queued_put_for_same_key():
    store = make_replicated()
    store.put("user/1", b"old")
    store.put("user/1", b"new")
    # One queue slot per key: last-writer-wins makes the older queued
    # operation irrelevant before it ever ships.
    assert store.pending_count() == 1
    store.clock.advance(HORIZON)
    store.pump(store.clock.now())
    assert store.store_for("b").latest_data("user/1") == b"new"


def test_delete_propagation_cancels_queued_replication():
    store = make_replicated()
    store.put("user/1", b"doomed")
    store.delete("user/1")
    cancelled = store.replication_metrics.counter(
        "replication_cancelled_puts"
    ).value
    assert cancelled == 1
    assert store.pending_count() == 1  # only the tombstone remains
    store.clock.advance(HORIZON)
    store.pump(store.clock.now())
    # The put never reaches the secondary — no cross-region resurrection.
    assert store.pending_count() == 0
    assert store.store_for("b").latest_data("user/1") is None


def test_write_horizon_covers_queued_entries():
    store = make_replicated(mean_lag=2.0)
    store.put("user/1", b"payload")
    entry = store.pending_for("b")[0]
    assert store.write_horizon() >= entry.apply_at
    assert store.write_horizon() >= entry.op_time


# --------------------------------------------------------------------- #
# bounded staleness under faults
# --------------------------------------------------------------------- #

def test_bounded_staleness_survives_throttle_storm():
    schedule = FaultSchedule(
        [ThrottleStorm(0.0, 1000.0, region="b", rate_factor=0.01)],
        name="storm",
    )
    store = make_replicated(mean_lag=2.0, schedule=schedule)
    store.put("user/1", b"payload")
    op_time = store.pending_for("b")[0].op_time
    deadline = op_time + HORIZON
    # Pump mid-storm: the entry's lag stretches, but never past the
    # horizon, and the stretch happens exactly once.
    store.pump(store.clock.now())
    store.clock.advance(HORIZON / 2)
    store.pump(store.clock.now())
    stretched = store.replication_metrics.counter(
        "replication_throttle_stretched"
    ).value
    assert stretched <= 1
    for entry in store.pending_for("b"):
        assert entry.apply_at <= deadline
    # At the deadline the write is applied: the guarantee holds even
    # while the storm is still raging.
    store.clock.advance_to(deadline)
    store.assert_bounded_staleness(store.clock.now())
    assert store.pending_count() == 0
    assert store.store_for("b").latest_data("user/1") == b"payload"


def test_region_outage_defers_as_audited_exception():
    outage_end = 50.0
    schedule = FaultSchedule(
        [RegionOutage(0.0, outage_end, region="b")], name="outage"
    )
    store = make_replicated(schedule=schedule)
    store.put("user/1", b"payload")
    store.clock.advance(HORIZON + 1.0)
    store.pump(store.clock.now())
    entry = store.pending_for("b")[0]
    assert entry.deferred
    assert entry.apply_at == outage_end
    # Deferred entries are exempt from the bound (an unreachable region
    # cannot converge) — check_staleness stays quiet, the assertion
    # passes, and the entry lands once the region heals.
    assert store.check_staleness(store.clock.now()) == []
    store.assert_bounded_staleness(store.clock.now())
    store.clock.advance_to(outage_end + 1.0)
    store.pump(store.clock.now())
    assert store.pending_count() == 0
    assert store.store_for("b").latest_data("user/1") == b"payload"


def test_staleness_violation_raises_when_bound_broken():
    store = make_replicated()
    store.put("user/1", b"payload")
    # Sabotage: push the queued apply past the horizon without an outage.
    entry = store.pending_for("b")[0]
    entry.apply_at = entry.op_time + HORIZON + 100.0
    store.clock.advance(HORIZON + 1.0)
    assert len(store.check_staleness(store.clock.now())) == 1
    with pytest.raises(StalenessViolation):
        store.assert_bounded_staleness(store.clock.now())


# --------------------------------------------------------------------- #
# heal-time reconciliation & promotion
# --------------------------------------------------------------------- #

def test_heal_reconciliation_is_idempotent():
    outage_end = 30.0
    schedule = FaultSchedule(
        [RegionOutage(0.0, outage_end, region="b")], name="outage"
    )
    store = make_replicated(schedule=schedule)
    store.put("user/1", b"payload")
    store.clock.advance_to(outage_end + HORIZON)
    first = store.pump(store.clock.now())
    assert first == 1
    # Pumping again applies nothing and changes nothing: reconciliation
    # after heal is safe to re-run any number of times.
    assert store.pump(store.clock.now()) == 0
    assert store.pump(store.clock.now()) == 0
    applied = store.replication_metrics.counter("replication_applied").value
    assert applied == 1
    assert store.store_for("b").latest_data("user/1") == b"payload"


def test_promote_drains_queue_and_flips_primary():
    store = make_replicated(mean_lag=5.0)
    for i in range(3):
        store.put(f"user/{i}", b"v%d" % i)
    pending = store.pending_count()
    assert pending == 3
    drained = store.promote("b", store.clock.now())
    assert drained == 3
    assert store.primary_region == "b"
    assert store.secondary_regions() == ["a"]
    # Every acknowledged write is readable on the new primary: RPO 0.
    for i in range(3):
        assert store.primary.latest_data(f"user/{i}") == b"v%d" % i
    # Promoting the current primary is a crash-retry-safe no-op.
    assert store.promote("b", store.clock.now()) == 0
    with pytest.raises(ValueError):
        store.promote("nowhere", store.clock.now())


def test_promotion_survives_mid_drain_crash():
    store = make_replicated(mean_lag=5.0)
    for i in range(3):
        store.put(f"user/{i}", b"v%d" % i)
    CRASH_POINTS.disarm_all()
    try:
        CRASH_POINTS.arm("replication.promote.mid_drain")
        with pytest.raises(SimulatedCrash):
            store.promote("b", store.clock.now())
    finally:
        CRASH_POINTS.disarm_all()
    # The crash landed between apply and remove: re-running the failover
    # re-applies at most one entry (same op_time, LWW-idempotent) and
    # completes the flip.
    assert store.primary_region == "a"
    drained = store.promote("b", store.clock.now())
    assert drained >= 2
    assert store.primary_region == "b"
    for i in range(3):
        assert store.primary.latest_data(f"user/{i}") == b"v%d" % i
    assert store.pending_count() == 0


def test_tombstone_beats_healed_regions_stale_put():
    """A restart-GC tombstone must fence a healed region's older put."""
    store = make_replicated(mean_lag=5.0)
    store.put("orphan/1", b"orphan")
    store.delete("orphan/1")
    store.promote("b", store.clock.now())
    # The delete cancelled the queued put, so the drain ships only the
    # tombstone — the newest operation wins on the new primary.
    assert store.primary.latest_data("orphan/1") is None


# --------------------------------------------------------------------- #
# client integration: region-labelled metrics
# --------------------------------------------------------------------- #

def test_client_metrics_carry_region_labels():
    store = make_replicated(mean_lag=0.1)
    client = RetryingObjectClient(store, enforce_unique_keys=False)
    client.put("user/1", b"payload")
    client.get("user/1")
    assert client.metrics.histogram("get_latency:a").count == 1
    # After failover the same client records under the new region label,
    # so the dead region's latency tail never drives the new primary's
    # hedge delays.
    store.promote("b", store.clock.now())
    client.get("user/1")
    assert client.metrics.histogram("get_latency:b").count == 1
    assert client.metrics.histogram("get_latency:a").count == 1


# --------------------------------------------------------------------- #
# engine integration: the OCM in front of the region wrapper
# --------------------------------------------------------------------- #

def test_replicated_engine_reads_uploaded_pages_through_the_ocm():
    db = make_db(replication=ReplicationConfig(regions=("ocm-a", "ocm-b")))
    db.create_object("t")
    txn = db.begin()
    for page in range(4):
        db.write_page(txn, "t", page, b"p%d" % page)
    db.commit(txn)
    db.buffer.invalidate_all()
    ssd_reads = db.ocm.device.metrics.snapshot().get("read_ops", 0)
    txn = db.begin()
    assert [db.read_page(txn, "t", page) for page in range(4)] == [
        b"p%d" % page for page in range(4)
    ]
    assert db.ocm.stats()["hits"] >= 4
    assert db.ocm.device.metrics.snapshot()["read_ops"] >= ssd_reads + 4
