"""Crash-sweep characterisation golden: every episode builder, every point.

Four seeded sweeps of the crash explorer, 141 episodes in all:

- ``all_points``: :func:`explore_all_points` at seed 0 — one episode per
  registered crash point, routed to the churn, multiplex, scale,
  restore, failover or scrub episode that traverses it;
- ``random``: 25 seeded schedules at seed 1 (random points, random
  arming delays, per-episode seeds), drawn by :func:`random_schedules`;
- ``paper_io``: every churn point that exists on both I/O paths,
  crashed once more under the ``DatabaseConfig.paper()`` fields;
- ``broken_gc``: every churn point under the deliberately broken GC,
  where the auditor must flag leaks.

Each episode's :func:`episode_dict` is pinned: crash point, seed,
mode, firings, crashes, the verdict and the full audit report.  Any
change in routing, in how an episode recovers, or in what it verifies
moves the golden.

Regenerate (``python tests/integration/test_crash_sweep_regression.py``)
only when a crash-explorer behaviour change is intended and called out.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.bench.crash_explorer import (
    WRITE_PIPELINE_PREFIXES,
    explore_all_points,
    registered_points,
    run_churn_episode,
    run_episode,
)
from repro.engine import PAPER_IO
from repro.sim.rng import DeterministicRng

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "crash_sweep_golden.json"

SETS = ("all_points", "random", "paper_io", "broken_gc")


def episode_dict(result) -> dict:
    """An :class:`EpisodeResult` as the golden stores it."""
    return {
        "crash_point": result.crash_point,
        "seed": result.seed,
        "mode": result.mode,
        "fired": result.fired,
        "crashes": result.crashes,
        "ok": result.ok,
        "violations": list(result.violations),
        "audit": result.report.to_dict() if result.report else None,
    }


def random_schedules(count: int, seed: int) -> "list":
    """Seeded random episodes: a random point, armed after skipping 0-2
    traversals, each at its own seed."""
    points = registered_points()
    rng = DeterministicRng(seed, "crash-explorer")
    results = []
    for i in range(count):
        sub = rng.substream(f"episode/{i}")
        name = sub.choice(points)
        skip = sub.randint(0, 2)
        results.append(run_episode(name, seed=seed + i, arm_skip=skip))
    return results


@functools.lru_cache(maxsize=None)
def _churn_points() -> "tuple":
    return tuple(
        result.crash_point for result in explore_all_points(seed=0)
        if result.mode == "churn"
    )


def run_sweep(name: str) -> "list":
    if name == "all_points":
        results = explore_all_points(seed=0)
    elif name == "random":
        results = random_schedules(count=25, seed=1)
    elif name == "paper_io":
        results = [
            run_churn_episode(point, seed=0, config_overrides=dict(PAPER_IO))
            for point in _churn_points()
            if not point.startswith(WRITE_PIPELINE_PREFIXES)
        ]
    else:
        results = [
            run_churn_episode(point, seed=0, broken_gc=True)
            for point in _churn_points()
        ]
    return [episode_dict(result) for result in results]


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", SETS)
def test_sweep_reproduces_golden(golden, name):
    observed = json.loads(json.dumps(run_sweep(name), sort_keys=True))
    expected = golden[name]
    # Compare per episode so a drift names the crash point that moved.
    for index, episode in enumerate(expected):
        assert observed[index] == episode, (index, episode["crash_point"])
    assert len(observed) == len(expected)


def test_golden_pins_a_clean_sweep(golden):
    """The golden is only worth pinning if it records recoveries."""
    assert set(golden) == set(SETS)
    assert [len(golden[name]) for name in SETS] == [47, 25, 34, 35]
    points = golden["all_points"]
    assert [e["crash_point"] for e in points] == registered_points()
    for name in ("all_points", "random", "paper_io"):
        for episode in golden[name]:
            assert episode["ok"], (name, episode["crash_point"])
            assert episode["audit"] is not None, (name, episode["crash_point"])
    # Armed without a skip, every point fires and crashes the engine.
    for name in ("all_points", "paper_io"):
        for episode in golden[name]:
            assert episode["fired"] >= 1 and episode["crashes"] >= 1, (
                name, episode["crash_point"])
    # The FlushForCommit pair fires once per path: one batch each.
    for name in ("all_points", "paper_io"):
        for episode in golden[name]:
            if episode["crash_point"].startswith("ocm.flush."):
                assert (episode["fired"], episode["crashes"]) == (1, 1)
    # Routing: every episode type is exercised, and each scale episode's
    # mid-retire orphans drain.
    modes = {e["mode"] for e in points}
    assert modes == {"churn", "multiplex", "scale", "restore", "failover",
                     "scrub"}
    for episode in points:
        if episode["crash_point"].startswith(("autoscale.",
                                              "multiplex.retire.")):
            assert episode["mode"] == "scale"
            assert episode["audit"]["leaked"] == []
    # The broken GC is caught: an ok verdict there means a flagged leak.
    for episode in golden["broken_gc"]:
        assert episode["ok"], episode["crash_point"]
        assert episode["audit"]["leaked"], episode["crash_point"]


if __name__ == "__main__":
    text = json.dumps({name: run_sweep(name) for name in SETS},
                      indent=1, sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {GOLDEN_PATH}")
