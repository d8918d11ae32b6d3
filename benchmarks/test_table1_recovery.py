"""Table 1: the recovery & garbage collection walkthrough as a benchmark.

Replays the paper's scripted multiplex scenario (``repro.bench.table1``)
and prints the event table with the active set after each step; asserts
the same outcomes the paper narrates.  (The exact-assertion version of
this scenario lives in tests/integration/test_table1_walkthrough.py.)
"""

from bench_utils import emit

from repro.bench.report import format_table
from repro.bench.table1 import run_table1_scenario


def test_table1_recovery_walkthrough(benchmark):
    events = benchmark.pedantic(run_table1_scenario, rounds=1, iterations=1)
    emit(
        "table1_recovery_walkthrough",
        format_table(["Clock", "Event", "Description", "Active Set (W1)"],
                     events),
    )
    assert events[-1][3] == "(empty)"
