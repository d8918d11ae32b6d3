"""Exhaustive crash-exploration sweep (CI crash-smoke job).

Every registered crash point is armed once against the seeded churn
workload; each episode must recover with zero invariant violations:
no committed data lost, nothing MISSING, and every leak drained by
restart GC + retention reaping.  Random seeded schedules then vary the
arm-skip counts to hit later traversals of the same points.

Marked ``crash`` and kept out of tier-1 (``testpaths`` excludes
``benchmarks/``): the sweep is cheap (~seconds) but belongs with the
other workload-scale suites.
"""

import pytest

from repro.bench.crash_explorer import (
    WRITE_PIPELINE_PREFIXES,
    explore_all_points,
    explore_random,
    registered_points,
    run_churn_episode,
)
from repro.engine import PAPER_IO

pytestmark = pytest.mark.crash


def test_every_registered_point_recovers_cleanly():
    results = explore_all_points(seed=0)
    assert len(results) == len(registered_points())
    failures = [
        (result.crash_point, result.violations)
        for result in results if not result.ok
    ]
    assert failures == []
    never_fired = [r.crash_point for r in results if r.fired == 0]
    assert never_fired == [], f"episodes never traversed: {never_fired}"


def test_churn_points_recover_on_the_per_page_path_too():
    """The sweep above crashes the engine as shipped; ``paper()`` ships as
    well, so every churn-episode point that exists on both paths (all but
    the ranged-PUT one) is crashed once more under it."""
    shared = [
        result.crash_point for result in explore_all_points(seed=0)
        if result.mode == "churn"
        and not result.crash_point.startswith(WRITE_PIPELINE_PREFIXES)
    ]
    assert len(shared) >= 30
    results = [
        run_churn_episode(name, seed=0, config_overrides=dict(PAPER_IO))
        for name in shared
    ]
    failures = [
        (result.crash_point, result.fired, result.violations)
        for result in results if not (result.ok and result.fired)
    ]
    assert failures == []


# The points the one write path and the one delete path fire.
WRITE_PATH_POINTS = (
    "dbspace.write_page.before_put",
    "dbspace.write_page.after_put",
    "ocm.write_through.before_put",
    "ocm.write_through.after_put",
    "ocm.flush.before_upload",
    "ocm.flush.after_upload",
    "dbspace.free_page.before_delete",
)


def test_write_path_points_recover_at_every_occurrence():
    """Crash each write, write-through, flush and free point at its first,
    second, ... traversal until the episode no longer reaches it, on the
    default and on ``paper()``: batches of one and real batches fire the
    same points, so both paths must survive every occurrence."""
    failures = []
    episodes = 0
    for overrides in (None, dict(PAPER_IO)):
        for name in WRITE_PATH_POINTS:
            skip = 0
            while True:
                result = run_churn_episode(name, seed=0, arm_skip=skip,
                                           config_overrides=overrides)
                if not result.fired:
                    break
                episodes += 1
                if not result.ok:
                    failures.append((name, overrides, skip,
                                     result.violations))
                skip += 1
            assert skip > 0, (name, overrides)
    assert failures == []
    assert episodes >= 100


def test_random_schedules_recover_cleanly():
    results = explore_random(count=25, seed=1)
    failures = [
        (result.crash_point, result.seed, result.violations)
        for result in results if not result.ok
    ]
    assert failures == []


def test_broken_gc_detected_under_crash():
    result = run_churn_episode("txn.gc.after_log", seed=0, broken_gc=True)
    assert result.ok, result.violations
    assert result.report is not None and result.report.leaked
