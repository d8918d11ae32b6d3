"""Unit tests for the crash-point registry (arming, one-shot firing)."""

import pytest

from repro.sim.crashpoints import (
    CrashPointError,
    CrashPointRegistry,
    SimulatedCrash,
)


def test_register_is_idempotent_and_keeps_first_description():
    reg = CrashPointRegistry()
    reg.register("a.b", "first")
    reg.register("a.b", "second")
    assert reg.point("a.b").description == "first"
    assert reg.names() == ["a.b"]


def test_hit_without_arming_only_counts():
    reg = CrashPointRegistry()
    reg.register("step")
    for _ in range(3):
        reg.hit("step")
    assert reg.point("step").hits == 3
    assert reg.point("step").fired == 0


def test_armed_point_fires_once_then_disarms():
    reg = CrashPointRegistry()
    reg.register("step")
    reg.arm("step")
    with pytest.raises(SimulatedCrash) as exc:
        reg.hit("step")
    assert exc.value.point == "step"
    assert reg.point("step").armed_countdown is None
    reg.hit("step")  # no longer armed: must not raise
    assert reg.point("step").fired == 1
    assert reg.fired_total == 1


def test_arm_skip_counts_traversals():
    reg = CrashPointRegistry()
    reg.register("step")
    reg.arm("step", skip=2)
    reg.hit("step")
    reg.hit("step")
    with pytest.raises(SimulatedCrash):
        reg.hit("step")


def test_arm_unknown_point_raises():
    reg = CrashPointRegistry()
    with pytest.raises(CrashPointError):
        reg.arm("nobody.registered.this")


def test_negative_skip_raises():
    reg = CrashPointRegistry()
    reg.register("step")
    with pytest.raises(CrashPointError):
        reg.arm("step", skip=-1)


def test_unregistered_hit_auto_registers():
    reg = CrashPointRegistry()
    reg.hit("ad.hoc")
    assert reg.point("ad.hoc").hits == 1


def test_disarm_all_clears_every_armed_point():
    reg = CrashPointRegistry()
    reg.register("a")
    reg.register("b")
    reg.arm("a")
    reg.arm("b", skip=5)
    assert [reg.point(name).armed_countdown for name in "ab"] == [0, 5]
    reg.disarm_all()
    assert [reg.point(name).armed_countdown for name in "ab"] == [None, None]
    reg.hit("a")
    reg.hit("b")


def test_fired_metrics_and_snapshot():
    reg = CrashPointRegistry()
    reg.register("step")
    reg.arm("step")
    with pytest.raises(SimulatedCrash):
        reg.hit("step")
    counters = reg.metrics.snapshot()
    assert counters["crashpoints_fired"] == 1
    assert counters["crashpoint_fired:step"] == 1
    point = reg.point("step")
    assert (point.hits, point.fired) == (1, 1)


def test_engine_registers_a_wide_point_inventory():
    """Importing the engine modules registers the documented points."""
    from repro.bench.crash_explorer import registered_points

    names = registered_points()
    assert len(names) >= 25
    for expected in (
        "txn.commit.before_log",
        "keygen.allocate.before_log",
        "snapshot.reap.after_free",
        "engine.restart_gc.mid_poll",
        "multiplex.restart_gc.mid_poll",
    ):
        assert expected in names
