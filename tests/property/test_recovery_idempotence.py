"""Property tests: recovery is idempotent and checkpoint-stable.

Replaying the same log twice must reconstruct identical state, and
recovering *from a recovered state's own checkpoint* must be a fixed
point: checkpointing ``recover(log)`` back into the log and recovering
again yields the same catalog, key generator, freelists, commit chain,
and commit sequence.  Together these guarantee a node can crash during
or immediately after recovery and converge to the same state.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import encode_checkpoint, recover
from tests.conftest import make_db

MIB = 1024 * 1024


def fast_db():
    # A small system volume keeps the freelist bitmap decode (one
    # popcount per block on every recover()) out of the test budget.
    return make_db(system_volume_size_bytes=32 * MIB)


def state_fingerprint(recovered):
    """Everything RecoveredState reconstructs, in comparable form."""
    return (
        recovered.catalog.to_bytes(),
        json.dumps(recovered.keygen.checkpoint_state(), sort_keys=True),
        None if recovered.freelist is None else recovered.freelist.to_bytes(),
        [entry.to_payload() for entry in recovered.chain_entries],
        recovered.commit_seq,
    )


@st.composite
def workload(draw):
    """Transactions (writes + outcome), with optional DDL beforehand."""
    txns = draw(st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 15), st.binary(min_size=1,
                                                             max_size=200)),
                     min_size=1, max_size=5),
            st.sampled_from(["commit", "rollback"]),
        ),
        min_size=1, max_size=6,
    ))
    extra_object = draw(st.booleans())
    mid_crash = draw(st.booleans())
    return txns, extra_object, mid_crash


def run_workload(db, spec):
    txns, extra_object, mid_crash = spec
    db.create_object("t")
    if extra_object:
        db.create_object("u")
    for index, (writes, outcome) in enumerate(txns):
        txn = db.begin()
        for page, data in writes:
            db.write_page(txn, "t", page, data)
        if outcome == "commit":
            db.commit(txn)
        else:
            db.rollback(txn)
        if mid_crash and index == len(txns) // 2:
            db.crash()
            db.restart()


@given(workload())
@settings(max_examples=15, deadline=None)
def test_recover_twice_is_identical(spec):
    db = fast_db()
    run_workload(db, spec)
    first = recover(db.log)
    second = recover(db.log)
    assert state_fingerprint(first) == state_fingerprint(second)


@given(workload())
@settings(max_examples=15, deadline=None)
def test_recover_over_recovered_checkpoint_is_fixed_point(spec):
    db = fast_db()
    run_workload(db, spec)
    first = recover(db.log)
    db.log.checkpoint(encode_checkpoint(
        first.catalog,
        first.keygen,
        {} if first.freelist is None else {"user": first.freelist},
        [entry.to_payload() for entry in first.chain_entries],
        first.commit_seq,
    ))
    second = recover(db.log)
    assert state_fingerprint(first) == state_fingerprint(second)


@given(workload())
@settings(max_examples=10, deadline=None)
def test_recovery_matches_live_engine_state(spec):
    """What recover() reconstructs is what the live engine holds."""
    db = fast_db()
    run_workload(db, spec)
    recovered = recover(db.log)
    assert recovered.catalog.to_bytes() == db.catalog.to_bytes()
    assert recovered.commit_seq == db.txn_manager.commit_seq
    assert recovered.keygen.max_allocated_key == db.keygen.max_allocated_key
