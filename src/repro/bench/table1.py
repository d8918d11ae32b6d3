"""The Table 1 recovery and garbage-collection walkthrough.

Replays the paper's scripted multiplex scenario (allocation, commits,
coordinator crash+recovery, rollback, writer crash+restart GC) and returns
the event table with writer-1's active set after each step.  Shared by the
``repro table1`` CLI command and ``benchmarks/test_table1_recovery.py``;
the exact-assertion version of this scenario is
``tests/integration/test_table1_walkthrough.py``.
"""

from __future__ import annotations

from typing import List

from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import MIB, DatabaseConfig


def run_table1_scenario() -> "List[List[object]]":
    events: "List[List[object]]" = []
    cluster = Multiplex(
        DatabaseConfig.paper(buffer_capacity_bytes=8 * MIB,
                             page_size=16 * 1024),
        MultiplexConfig(writers=1, secondary_buffer_bytes=8 * MIB,
                        ocm_enabled=False),
    )
    coordinator = cluster.coordinator
    w1 = cluster.node("writer-1")
    for table in ("ta", "tb", "tc"):
        coordinator.create_object(table)

    def active():
        spans = coordinator.keygen.active_set("writer-1").intervals()
        if not spans:
            return "(empty)"
        base = 1 << 63
        return ", ".join(f"{lo - base}-{hi - base}" for lo, hi in spans)

    def note(clock, event, description):
        events.append([clock, event, description, active()])

    coordinator.checkpoint()
    note(50, "Checkpoint", "active sets flushed")

    t1 = w1.begin()
    for page in range(3):
        w1.write_page(t1, "ta", page, b"t1-%d" % page)
    w1.buffer.flush_txn(t1.txn_id, commit_mode=False)
    note(60, "W1 allocation", "key range allocated to W1")
    note(70, "T1 begins on W1", "objects flushed; recorded in T1's RB")

    t2 = w1.begin()
    for page in range(3):
        w1.write_page(t2, "tb", page, b"t2-%d" % page)
    w1.buffer.flush_txn(t2.txn_id, commit_mode=False)
    note(80, "T2 begins on W1", "objects flushed; recorded in T2's RB")

    w1.commit(t1)
    note(90, "T1 commits", "RF/RB flushed; active set updated")

    t3 = w1.begin()
    for page in range(2):
        w1.write_page(t3, "tc", page, b"t3-%d" % page)
    w1.buffer.flush_txn(t3.txn_id, commit_mode=False)
    t3_keys = len(t3.rb.cloud_keys())
    note(100, "T3 begins on W1", "objects flushed; recorded in T3's RB")

    before = coordinator.keygen.active_set("writer-1").intervals()
    cluster.coordinator_crash_and_recover()
    coordinator = cluster.coordinator
    recovered = coordinator.keygen.active_set("writer-1").intervals()
    note(110, "Coordinator crashes", "")
    note(120, "Coordinator recovers", "active set recovered from the log")
    assert before == recovered

    w1.rollback(t2)
    note(130, "T2 rolls back",
         "objects garbage collected; active set NOT updated")

    w1.crash()
    note(140, "W1 crashes", "")
    reclaimed = w1.restart()
    note(150, "W1 restarts",
         f"outstanding allocations GCed ({reclaimed} objects)")
    assert reclaimed == t3_keys
    return events
