"""Chaos resilience suite: the acceptance storm, asserted end to end.

Runs the canonical storm schedule (10 s full outage at t=5, then a 30 s
period of 20% errors, quarter-rate throttling and 4x latency) against a
full engine and asserts the ISSUE acceptance criteria:

- every committed transaction reads back byte-identical after recovery;
- the circuit breaker opens/closes at the scripted boundaries (asserted
  via the breaker-transition metric series);
- degraded-mode OCM serves cached reads during the outage;
- p99 read latency is measured under the storm;
- re-running with the same seed reproduces identical metric counts.

Marked ``chaos`` so CI can run it as its own smoke job.
"""

import pytest

from repro.bench.chaos import run_chaos_scenario

pytestmark = pytest.mark.chaos

OUTAGE_START = 5.0
OUTAGE_END = 15.0   # canonical storm: 10 s blackout...
STORM_END = 45.0    # ...then 30 s of degraded service

OPEN, HALF_OPEN, CLOSED = 2.0, 1.0, 0.0


@pytest.fixture(scope="module")
def storm():
    return run_chaos_scenario("storm", seed=0, start=OUTAGE_START)


def test_workload_made_progress_through_the_storm(storm):
    assert storm["commits_ok"] > 0
    assert storm["committed_pages"] > 0
    # The storm actually disturbed the run (else this suite tests nothing).
    assert storm["store_metrics"]["fault_outage_failures"] > 0
    assert storm["store_metrics"]["fault_storm_failures"] > 0
    assert storm["store_metrics"]["fault_throttled_requests"] > 0
    assert storm["store_metrics"]["fault_latency_spikes"] > 0


def test_committed_data_is_byte_identical_after_recovery(storm):
    assert storm["mismatches"] == 0


def test_breaker_cycles_at_scripted_boundaries(storm):
    transitions = storm["breaker_transitions"]
    opens = [t for t, code in transitions if code == OPEN]
    closes = [t for t, code in transitions if code == CLOSED]
    assert opens and closes
    # The breaker first opens during the blackout window...
    assert OUTAGE_START <= opens[0] < OUTAGE_END
    # ...and cannot close before the blackout lifts (every request in the
    # window fails, including half-open probes).
    assert closes[0] >= OUTAGE_END
    assert closes[0] > opens[0]
    # Transition counters agree with the series.
    snap = storm["client_metrics"]
    assert snap["breaker_opened"] == len(opens)
    assert snap["breaker_closed"] == len(closes)
    assert snap["breaker_fast_failures"] > 0
    # The run ends recovered: the breaker's final state is closed.  (The
    # series is sorted by time, and a windowed request notes its outcome
    # at its own completion, so its last sample need not be the final
    # transition.)
    assert snap["breaker_state"] == CLOSED


def test_degraded_ocm_served_cached_reads_during_outage(storm):
    assert storm["ocm_metrics"]["degraded_reads"] > 0


def test_hedged_gets_fired_under_the_storm(storm):
    assert storm["client_metrics"]["hedged_gets"] > 0


def test_p99_read_latency_is_measured(storm):
    assert 0.0 < storm["p99_get_latency"] < 60.0


def test_same_seed_reproduces_identical_metrics(storm):
    replay = run_chaos_scenario("storm", seed=0, start=OUTAGE_START)
    for section in ("client_metrics", "store_metrics", "ocm_metrics"):
        assert replay[section] == storm[section], section
    assert replay["breaker_transitions"] == storm["breaker_transitions"]
    for scalar in ("commits_ok", "commits_failed", "committed_pages",
                   "reads_failed_fast", "generations", "mismatches"):
        assert replay[scalar] == storm[scalar], scalar


def test_different_seed_diverges():
    a = run_chaos_scenario("storm", seed=0, start=OUTAGE_START, settle=1.0)
    b = run_chaos_scenario("storm", seed=1, start=OUTAGE_START, settle=1.0)
    assert a["store_metrics"] != b["store_metrics"]
