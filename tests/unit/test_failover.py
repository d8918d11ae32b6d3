"""Unit tests for region failover, the region auditor and the DR drill."""

import pytest

from repro.bench.crash_explorer import (
    FAILOVER_REGIONS,
    base_config,
    failover_overrides,
    run_episode,
    run_failover_episode,
)
from repro.bench.dr import DrillConfig, run_dr_drill
from repro.core.audit import StoreAuditor
from repro.core.multiplex import Multiplex, MultiplexConfig, MultiplexError
from repro.engine import Database


def make_mux(seed=0):
    return Multiplex(base_config(seed, failover_overrides()), MultiplexConfig(
        writers=1,
        secondary_buffer_bytes=16 * 1024,
        secondary_ocm_bytes=4 * 1024 * 1024,
    ))


def commit_pages(node, obj, tag, pages=3):
    staged = {}
    txn = node.begin()
    for p in range(pages):
        data = f"{tag}:{p}".encode().ljust(64, b".")
        node.write_page(txn, obj, p, data)
        staged[p] = data
    node.commit(txn)
    return staged


# --------------------------------------------------------------------- #
# multiplex region operations
# --------------------------------------------------------------------- #

def test_region_operations_require_replication():
    mux = Multiplex(base_config(0), MultiplexConfig(writers=1))
    with pytest.raises(MultiplexError):
        mux.region_failover()
    with pytest.raises(MultiplexError):
        mux.inject_region_outage("region-a", (0.0, 10.0))


def test_inject_region_outage_validates_region():
    mux = make_mux()
    with pytest.raises(MultiplexError):
        mux.inject_region_outage("nowhere", (0.0, 10.0))


def test_failover_auto_picks_live_secondary():
    mux = make_mux()
    store = mux.coordinator.object_store
    now = mux.clock.now()
    mux.inject_region_outage(FAILOVER_REGIONS[0], (now, now + 30.0))
    mux.clock.advance(0.001)
    new_primary = mux.region_failover()
    assert new_primary == FAILOVER_REGIONS[1]
    assert store.primary_region == FAILOVER_REGIONS[1]
    assert mux.coordinator.metrics.counter("region_failovers").value == 1


def test_failover_fails_without_live_secondary():
    mux = make_mux()
    now = mux.clock.now()
    for region in FAILOVER_REGIONS:
        mux.inject_region_outage(region, (now, now + 30.0))
    mux.clock.advance(0.001)
    with pytest.raises(MultiplexError):
        mux.region_failover()


def test_committed_data_survives_failover():
    mux = make_mux()
    coordinator = mux.coordinator
    writer = mux.node("writer-1")
    coordinator.create_object("t0")
    staged = commit_pages(writer, "t0", "gen0")
    now = mux.clock.now()
    mux.inject_region_outage(FAILOVER_REGIONS[0], (now, now + 120.0))
    mux.clock.advance(0.001)
    mux.region_failover()
    # Cold-cache reads on the new primary return every acknowledged page.
    coordinator.node.invalidate_caches()
    if coordinator.ocm is not None:
        coordinator.ocm.invalidate_all()
    txn = coordinator.begin()
    for p, data in staged.items():
        assert coordinator.read_page(txn, "t0", p) == data
    coordinator.rollback(txn)


# --------------------------------------------------------------------- #
# the region auditor
# --------------------------------------------------------------------- #

def test_audit_reports_every_region():
    db = Database(base_config(0, failover_overrides()))
    db.create_object("t0")
    txn = db.begin()
    for p in range(3):
        db.write_page(txn, "t0", p, b"page".ljust(64, b"."))
    db.commit(txn)
    store = db.object_store
    db.clock.advance(store.config.staleness_horizon + 1.0)
    report = StoreAuditor(db).audit()
    assert report.regions_audited == [FAILOVER_REGIONS[1]]
    assert report.region_missing == []
    assert report.region_leaked == []
    assert report.region_divergent == []
    assert report.staleness_violations == []
    assert report.ok()
    payload = report.to_dict()
    for key in ("regions_audited", "region_missing", "region_leaked",
                "region_divergent", "region_pending",
                "staleness_violations"):
        assert key in payload


def test_audit_counts_benign_pending_replication():
    db = Database(base_config(0, failover_overrides()))
    db.create_object("t0")
    txn = db.begin()
    for p in range(3):
        db.write_page(txn, "t0", p, b"page".ljust(64, b"."))
    db.commit(txn)
    store = db.object_store
    if store.pending_count() == 0:
        pytest.skip("replication converged before the audit could run")
    report = StoreAuditor(db).audit()
    # In-flight replication is not data loss: queued writes show up as
    # pending, never as region-MISSING, and the report stays clean.
    assert report.region_pending == store.pending_count()
    assert report.region_missing == []
    assert report.ok()


def test_audit_flags_region_divergence():
    db = Database(base_config(0, failover_overrides()))
    db.create_object("t0")
    txn = db.begin()
    for p in range(3):
        db.write_page(txn, "t0", p, b"page".ljust(64, b"."))
    db.commit(txn)
    store = db.object_store
    db.clock.advance(store.config.staleness_horizon + 1.0)
    store.pump(db.clock.now())
    # Corrupt one replicated object in the secondary region only.
    secondary = store.store_for(FAILOVER_REGIONS[1])
    name = next(
        key for key in secondary.all_keys()
        if secondary.latest_data(key) is not None
    )
    versioned = secondary._objects[name]
    versioned.add_version(
        db.clock.now(), b"corrupted", op_time=db.clock.now()
    )
    report = StoreAuditor(db).audit()
    assert (FAILOVER_REGIONS[1], ) == tuple(
        region for region, _ in report.region_divergent
    )
    assert not report.ok()


# --------------------------------------------------------------------- #
# failover episodes & the DR drill
# --------------------------------------------------------------------- #

def test_failover_episode_clean_without_crashes():
    result = run_failover_episode(None, seed=0)
    assert result.ok, result.violations
    assert result.mode == "failover"
    assert result.report is not None
    assert result.report.regions_audited


def test_failover_episode_survives_mid_promotion_crash():
    result = run_episode("replication.promote.mid_drain", seed=0)
    assert result.mode == "failover"
    assert result.fired >= 1
    assert result.ok, result.violations


def test_dr_drill_measures_rto_and_rpo():
    rtos = []
    for lag in (0.1, 0.5, 2.0):
        result = run_dr_drill(DrillConfig(mean_lag_seconds=lag,
                                          staleness_horizon=30.0))
        assert result.ok, (lag, result.violations)
        assert result.failover_region == "region-b"
        assert result.rto_seconds > 0.0
        assert result.rpo_acknowledged_seconds == 0.0
        assert result.max_observed_lag_seconds <= result.rpo_bound_seconds
        assert result.audit_ok and result.restore_ok
        payload = result.to_dict()
        assert payload["ok"] is True
        assert payload["rto_seconds"] == round(result.rto_seconds, 6)
        rtos.append(result.rto_seconds)
    # More lag leaves more queue to drain at promotion: RTO never falls.
    assert rtos == sorted(rtos), rtos
