"""Every-occurrence crash sweep of the write path (CI crash-smoke job).

Each write, write-through, flush and free point is crashed at every
traversal the churn workload makes, on the engine as shipped and on
``PAPER_IO``; each episode must recover with zero invariant violations:
no committed data lost, nothing MISSING, and every leak drained by
restart GC + retention reaping.  The one-episode-per-point sweeps live
in tier-1 as ``tests/integration/test_crash_sweep_regression.py``.

Marked ``crash`` and kept out of tier-1 (``testpaths`` excludes
``benchmarks/``): about 180 episodes belong with the other
workload-scale suites.
"""

import pytest

from repro.bench.crash_explorer import run_churn_episode
from repro.engine import PAPER_IO

pytestmark = pytest.mark.crash


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
