"""The Table 1 walkthrough: recovery and garbage collection, step by step.

The paper's Table 1 narrates a multiplex with a coordinator and one writer
(W1), three transactions and two crashes.  This test replays every clock
tick and asserts the active set and garbage collection behaviour the paper
describes at each step.
"""

import pytest

from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import DatabaseConfig

MIB = 1024 * 1024


@pytest.fixture
def cluster():
    return Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024),
        MultiplexConfig(writers=1, secondary_buffer_bytes=8 * MIB,
                        ocm_enabled=False),
    )


def flushed_writes(node, txn, name, pages, payload=b"d" * 64):
    """Write pages and flush them so objects exist on the store."""
    for page in pages:
        node.write_page(txn, name, page, payload + b"%d" % page)
    node.buffer.flush_txn(txn.txn_id, commit_mode=False)


def test_table1_event_sequence(cluster):
    coordinator = cluster.coordinator
    w1 = cluster.node("writer-1")
    for table in ("ta", "tb", "tc"):
        coordinator.create_object(table)

    # Clock 50: checkpoint — active sets flushed (empty for W1).
    coordinator.checkpoint()
    assert not coordinator.keygen.active_set("writer-1")

    # Clock 60: a key range is allocated to W1.
    t1 = w1.begin()
    flushed_writes(w1, t1, "ta", range(0, 3))
    allocated = coordinator.keygen.active_set("writer-1").intervals()
    assert len(allocated) == 1
    range_lo, range_hi = allocated[0]

    # Clock 70: T1 flushed objects; its keys are in its RB bitmap.
    t1_keys = set(t1.rb.cloud_keys())
    assert t1_keys
    assert all(range_lo <= key <= range_hi for key in t1_keys)

    # Clock 80: T2 begins on W1 and consumes more keys from the range.
    t2 = w1.begin()
    flushed_writes(w1, t2, "tb", range(10, 13))
    t2_keys = set(t2.rb.cloud_keys())
    assert t2_keys and t2_keys.isdisjoint(t1_keys)

    # Clock 90: T1 commits; its keys leave the active set.
    w1.commit(t1)
    active_after_commit = coordinator.keygen.active_set("writer-1")
    for key in t1_keys:
        for lo, hi in active_after_commit:
            assert not lo <= key <= hi
    for key in t2_keys:
        assert any(lo <= key <= hi for lo, hi in active_after_commit)

    # Clock 100: T3 begins and flushes more objects.
    t3 = w1.begin()
    flushed_writes(w1, t3, "tc", range(20, 22))
    t3_keys = set(t3.rb.cloud_keys())

    # Clock 110-120: the coordinator crashes and recovers; the active set
    # is reconstructed from the log (allocation replayed, T1's commit
    # trimmed away).
    expected_active = coordinator.keygen.active_set("writer-1").intervals()
    cluster.coordinator_crash_and_recover()
    recovered = cluster.coordinator.keygen.active_set("writer-1").intervals()
    assert recovered == expected_active

    # Clock 130: T2 rolls back; its objects are deleted immediately but
    # the active set is deliberately NOT updated.
    store = cluster.coordinator.object_store
    w1.rollback(t2)
    for key in t2_keys:
        name = cluster.coordinator.user_dbspace.object_name(key)
        assert not store.exists(name)
    still_active = cluster.coordinator.keygen.active_set("writer-1").intervals()
    assert still_active == expected_active

    # Clock 140-150: W1 crashes and restarts; the coordinator polls the
    # whole outstanding range.  T3's flushed objects are reclaimed, T2's
    # (already deleted) keys are polled again harmlessly, and the active
    # set is finally cleared.
    w1.crash()
    reclaimed = w1.restart()
    assert reclaimed == len(t3_keys)
    assert not cluster.coordinator.keygen.active_set("writer-1")

    # Committed data (T1's) survives everything.
    check = w1.begin()
    for page in range(0, 3):
        assert w1.read_page(check, "ta", page).startswith(b"d")
    w1.rollback(check)
