"""Stateful oracle: hypothesis drives the engine against a dictionary.

The model is ``{page: bytes}`` for the committed state of one object plus
``{snapshot_id: {page: bytes}}`` for every live snapshot.  The rules are
every public ``Database`` method that changes durable state on a cloud
user dbspace with retention on: write and commit, write and roll back,
checkpoint, crash and restart (with writes in flight), create a
snapshot, restore one, and advance the clock and reap.  After every step,
every committed page reads back equal to the model, and the store audit
finds no MISSING object and no snapshot-missing object.

No rule arms a crash point: crashes inside the protocol are the crash
sweep's business.
"""

from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.audit import StoreAuditor
from tests.conftest import make_db

MIB = 1024 * 1024
RETENTION = 100.0

WRITES = st.lists(
    st.tuples(st.integers(0, 5), st.binary(min_size=1, max_size=64)),
    min_size=1, max_size=4,
)


@seed(20211)
class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.db = make_db(retention_seconds=RETENTION,
                          system_volume_size_bytes=32 * MIB)
        self.db.create_object("t")
        self.model = {}
        # snapshot_id -> (created_at, expires_at, pages)
        self.snapshots = {}

    def _write(self, writes):
        txn = self.db.begin()
        for page, data in writes:
            self.db.write_page(txn, "t", page, data)
        return txn

    @rule(writes=WRITES)
    def write_and_commit(self, writes):
        self.db.commit(self._write(writes))
        self.model.update(writes)

    @rule(writes=WRITES)
    def write_and_roll_back(self, writes):
        self.db.rollback(self._write(writes))

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule(in_flight=st.one_of(st.none(), WRITES))
    def crash_and_restart(self, in_flight):
        if in_flight is not None:
            # Uploaded but never committed: restart GC must reclaim them.
            txn = self._write(in_flight)
            self.db.buffer.flush_txn(txn.txn_id, commit_mode=False)
        self.db.crash()
        self.db.restart()

    @rule()
    def create_snapshot(self):
        snapshot = self.db.create_snapshot()
        self.snapshots[snapshot.snapshot_id] = (
            snapshot.created_at, snapshot.expires_at, dict(self.model))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def restore_snapshot(self, data):
        snapshot_id = data.draw(st.sampled_from(sorted(self.snapshots)))
        taken_at, __, pages = self.snapshots[snapshot_id]
        self.db.restore_snapshot(snapshot_id)
        self.model = dict(pages)
        # The restore drops the snapshots taken after its restore point.
        self.snapshots = {
            sid: entry for sid, entry in self.snapshots.items()
            if entry[0] <= taken_at
        }

    @rule(seconds=st.sampled_from([1.0, RETENTION / 2, RETENTION + 1.0]))
    def advance_and_reap(self, seconds):
        self.db.clock.advance(seconds)
        self.db.snapshot_manager.reap()
        now = self.db.clock.now()
        self.snapshots = {
            sid: entry for sid, entry in self.snapshots.items()
            if entry[1] > now
        }

    @invariant()
    def committed_pages_read_back(self):
        txn = self.db.begin()
        for page, data in sorted(self.model.items()):
            assert self.db.read_page(txn, "t", page) == data, page
        self.db.commit(txn)

    @invariant()
    def no_object_is_missing(self):
        report = StoreAuditor(self.db).audit()
        assert not report.missing, report.missing
        assert not report.snapshot_missing, report.snapshot_missing


def test_engine_matches_its_model():
    run_state_machine_as_test(EngineMachine, settings=settings(
        max_examples=200,
        stateful_step_count=30,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    ))
