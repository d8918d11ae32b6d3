"""Property tests: whole-engine invariants under random transaction mixes.

The committed state's serial-model check lives in the stateful machine
(``test_engine_machine.py``), whose commit and rollback rules cover it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_db


@st.composite
def workload(draw):
    """A list of transactions, each writing some pages then ending."""
    txns = draw(st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 15), st.binary(min_size=1,
                                                             max_size=200)),
                     min_size=1, max_size=6),
            st.sampled_from(["commit", "rollback"]),
        ),
        min_size=1, max_size=8,
    ))
    return txns


@given(workload())
@settings(max_examples=20, deadline=None)
def test_no_reachable_page_is_ever_deleted(txns):
    """GC safety: every locator reachable via the catalog exists."""
    db = make_db()
    db.create_object("t")
    for writes, outcome in txns:
        txn = db.begin()
        for page, data in writes:
            db.write_page(txn, "t", page, data)
        if outcome == "commit":
            db.commit(txn)
        else:
            db.rollback(txn)
        # Invariant check after every transaction boundary.  Ground truth
        # (`latest_data`) rather than `exists`: a reachable object may be
        # momentarily invisible under eventual consistency, which readers
        # absorb with retries — but it must never have been *deleted*.
        for key in db._reachable_cloud_keys():
            name = db.user_dbspace.object_name(key)
            assert db.object_store.latest_data(name) is not None, (
                f"reachable object {name} deleted after {outcome}"
            )


@given(workload())
@settings(max_examples=15, deadline=None)
def test_store_converges_to_reachable_plus_nothing(txns):
    """After quiescence + GC, only reachable objects remain on the store."""
    db = make_db()
    db.create_object("t")
    for writes, outcome in txns:
        txn = db.begin()
        for page, data in writes:
            db.write_page(txn, "t", page, data)
        if outcome == "commit":
            db.commit(txn)
        else:
            db.rollback(txn)
    db.txn_manager.collect_garbage()
    reachable = db._reachable_cloud_keys()
    assert db.object_store.object_count() == len(reachable)
