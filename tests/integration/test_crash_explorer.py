"""Integration tests for the crash-exploration harness (bounded).

``test_crash_sweep_regression.py`` pins every episode of the seeded
sweeps; here a handful of representative episodes, and the behaviour a
golden cannot show — what an episode does when its machinery fails,
fencing and episodes at other seeds — keep the harness itself honest
inside tier-1.
"""

import pytest

from repro.bench import crash_explorer
from repro.bench.crash_explorer import (
    registered_points,
    run_churn_episode,
    run_episode,
    run_scale_episode,
)
from repro.core.audit import AuditError, StoreAuditor
from repro.engine import PAPER_IO, Database

# One point per episode type.
POINT_PER_EPISODE = [
    ("txn.commit.before_log", "churn"),
    ("multiplex.restart_gc.mid_poll", "multiplex"),
    ("multiplex.retire.before_flush", "scale"),
    ("engine.restore.before_poll", "restore"),
    ("multiplex.failover.before_promote", "failover"),
    ("scrub.before_repair", "scrub"),
]

# One point per protocol family: commit, GC, snapshot reap, restart GC,
# multiplex restart, restore, autoscale pre-warm, drain-and-retire.
REPRESENTATIVE_POINTS = [
    "txn.commit.before_log",
    "txn.gc.after_apply_rf",
    "snapshot.reap.after_free",
    "engine.restart_gc.mid_poll",
    "multiplex.restart_gc.mid_poll",
    "engine.restore.before_poll",
    "autoscale.prewarm.before_admit",
    "multiplex.retire.before_flush",
    "multiplex.retire.after_detach",
]


def test_representative_points_recover_cleanly():
    names = registered_points()
    for point in REPRESENTATIVE_POINTS:
        assert point in names
        result = run_episode(point, seed=0)
        assert result.ok, (point, result.violations)
        assert result.fired >= 1, point
        assert result.crashes >= 1, point


def test_flush_points_fire_on_both_paths():
    """FlushForCommit fires one before/after pair per batch whether the
    queue drains as adjacent-key batches (the default) or one job at a
    time (``paper()``)."""
    for overrides in (None, dict(PAPER_IO)):
        for point in ("ocm.flush.before_upload", "ocm.flush.after_upload"):
            result = run_churn_episode(point, seed=0,
                                       config_overrides=overrides)
            assert result.ok, (point, overrides, result.violations)
            assert result.fired == 1 and result.crashes == 1, point


@pytest.mark.parametrize("point, mode", POINT_PER_EPISODE)
def test_an_audit_error_is_a_violation_not_an_abort(monkeypatch, point,
                                                    mode):
    """A sweep reports a failing audit against its point; it must not
    stop at the first episode whose auditor raises."""
    def refuse(self, deep=False):
        raise AuditError("no cloud dbspace to audit")

    monkeypatch.setattr(StoreAuditor, "audit", refuse)
    result = run_episode(point, seed=0)
    assert result.mode == mode
    assert result.fired == 1
    assert result.report is None
    assert result.violations == ["audit failed: no cloud dbspace to audit"]


def test_an_episode_that_never_reaches_its_point_is_a_violation(monkeypatch):
    """"fired 0 ... ok" would let the sweep shrink silently: under
    ``paper()`` the client never issues a ranged PUT."""
    real = crash_explorer.run_churn_episode
    monkeypatch.setattr(
        crash_explorer, "run_churn_episode",
        lambda *args, **kwargs: real(*args, **kwargs,
                                     config_overrides=dict(PAPER_IO)),
    )
    result = run_episode("client.put_range.before_request", seed=0)
    assert result.fired == 0
    assert not result.ok
    assert "never fired" in result.violations[0]


def test_broken_gc_is_caught_as_leak():
    """The deliberately broken GC regression fixture must be detected."""
    result = run_churn_episode("txn.commit.after_log", seed=0,
                               broken_gc=True)
    assert result.ok, result.violations  # ok == leak was *detected*
    assert result.report is not None and result.report.leaked


def test_clean_episode_without_arming():
    result = run_churn_episode(None, seed=3)
    assert result.ok, result.violations
    assert result.fired == 0  # nothing armed, nothing injected
    assert result.report is not None and result.report.ok()


def test_fencing_regression_in_flight_put_vs_restart_gc():
    """Regression: an in-flight PUT accepted before the crash must not
    outlive restart GC's blind delete (last-writer-wins resurrection)."""
    result = run_episode("client.put.before_request", seed=12, arm_skip=2)
    assert result.ok, result.violations


def test_scale_episode_routes_and_recovers():
    """A node dying mid-retire loses no committed data and leaks drain."""
    for point in ("multiplex.retire.before_flush",
                  "multiplex.retire.after_detach"):
        result = run_episode(point, seed=0)
        assert result.mode == "scale", point
        assert result.ok, (point, result.violations)
        assert result.fired >= 1 and result.crashes >= 1, point
        assert result.report is not None and not result.report.leaked


def test_scale_episode_clean_cycle():
    result = run_scale_episode(None, seed=4)
    assert result.ok, result.violations
    assert result.fired == 0 and result.crashes == 0


def test_prewarm_crash_is_benign():
    """Dying after the warm fill but before taking traffic: read-only,
    so recovery needs nothing beyond discarding the node."""
    result = run_episode("autoscale.prewarm.before_admit", seed=0)
    assert result.mode == "scale"
    assert result.ok, result.violations
    assert result.fired >= 1


@pytest.mark.parametrize("point, mode", [
    pair for pair in POINT_PER_EPISODE if pair[1] not in ("churn", "scale")
])
def test_an_unreadable_committed_page_is_data_loss(monkeypatch, point,
                                                   mode):
    """Cold read-back reports every page it cannot read as lost instead
    of aborting the sweep (these workloads read nothing through the
    engine before the read-back)."""
    def unreadable(self, txn, name, page_no):
        raise OSError("device gone")

    monkeypatch.setattr(Database, "read_page", unreadable)
    result = run_episode(point, seed=0)
    assert result.mode == mode
    assert result.violations and all(
        violation.startswith("data loss: committed page 't0'/")
        for violation in result.violations
    ), result.violations
