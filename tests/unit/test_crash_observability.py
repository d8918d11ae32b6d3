"""Observability of the crash/recovery/audit paths: spans and metrics."""

import pytest

from repro.core.audit import StoreAuditor
from repro.sim.crashpoints import CRASH_POINTS, SimulatedCrash
from repro.sim.tracing import Tracer
from tests.conftest import make_db


@pytest.fixture(autouse=True)
def _disarm():
    yield
    CRASH_POINTS.disarm_all()


def traced_db(**overrides):
    db = make_db(**overrides)
    db.attach_tracer(Tracer(db.clock, meter=db.meter))
    return db


def span_keys(db):
    return {(span.name, span.layer) for span in db.tracer.all_spans()}


def test_restart_emits_recovery_spans_and_poll_metric():
    db = traced_db(system_volume_size_bytes=32 * 1024 * 1024)
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"payload")
    db.commit(txn)
    db.crash()
    db.restart()
    keys = span_keys(db)
    assert ("replay", "recovery") in keys
    assert ("restart_gc", "recovery") in keys
    assert "restart_gc_polled_keys" in db.metrics.snapshot()


def test_audit_emits_fsck_span_and_gauges():
    db = traced_db()
    db.create_object("t")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"payload")
    db.commit(txn)
    StoreAuditor(db).audit()
    assert ("fsck", "audit") in span_keys(db)
    counters = db.metrics.snapshot()
    assert counters["fsck_runs"] == 1
    assert counters["fsck_leaked"] == 0
    assert counters["fsck_missing"] == 0


def test_fired_crash_point_counts_in_registry_metrics():
    db = make_db(system_volume_size_bytes=32 * 1024 * 1024)
    db.create_object("t")
    before = CRASH_POINTS.metrics.snapshot().get("crashpoints_fired", 0)
    CRASH_POINTS.arm("txn.commit.before_log")
    txn = db.begin()
    db.write_page(txn, "t", 0, b"payload")
    with pytest.raises(SimulatedCrash) as exc:
        db.commit(txn)
    db.crash_from(exc.value)
    after = CRASH_POINTS.metrics.snapshot()
    assert after["crashpoints_fired"] == before + 1
    assert after["crashpoint_fired:txn.commit.before_log"] >= 1
    assert db.last_crash_point == "txn.commit.before_log"
    db.restart()
