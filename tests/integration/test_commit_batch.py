"""One write-through per commit: pages and blockmap nodes in one batch.

A commit stages its remaining dirty pages and every write handle's dirty
blockmap nodes into its own batch (each gets its fresh key when staged)
and writes the batch with one ``put_many``, so adjacent keys share ranged
PUTs and the root rides the last one.

- The request count: ``ceil((pages + nodes) / max_run)`` PUTs per commit.
- Sessions: the batch belongs to the commit, never to the dbspace.  A
  commit yields while staging (a cold blockmap node is a blocking read),
  and another session's commit runs meanwhile.  A batch kept per
  dbspace loses the first commit's pages; the mutant below does exactly
  that, and the read-back check catches it.
- A failed write: staging handed the keys out before the PUT, so a
  transaction whose commit write failed may only roll back.
"""

import math

import pytest

from repro.core.txn import TransactionError
from repro.engine import PAPER_IO
from repro.objectstore.client import RetryPolicy
from repro.objectstore.errors import RetriesExhaustedError
from repro.objectstore.s3sim import ObjectStoreProfile
from repro.storage.dbspace import CloudDbspace
from tests.conftest import make_db

FANOUT = 512  # the engine's blockmap fanout: page FANOUT grows the tree


def put_requests(db) -> float:
    return db.object_store.metrics.snapshot().get("put_requests", 0.0)


def page(name: str, page_no: int, generation: int) -> bytes:
    return b"%s/%d/gen%d" % (name.encode(), page_no, generation)


@pytest.mark.parametrize("profile", [{}, PAPER_IO], ids=["default", "paper"])
@pytest.mark.parametrize("pages", [1, 15, 16, 40])
def test_a_commit_of_adjacent_pages_is_ceil_items_over_max_run_puts(
        profile, pages):
    db = make_db(**profile)
    db.create_object("t")
    txn = db.begin()
    for page_no in range(pages):
        db.write_page(txn, "t", page_no, page("t", page_no, 0))
    before = put_requests(db)
    db.commit(txn)
    # One blockmap node (a one-level tree's root) rides with the pages.
    max_run = db.object_client.max_run
    assert put_requests(db) - before == math.ceil((pages + 1) / max_run)


def test_a_one_page_churn_commit_is_one_put():
    db = make_db()
    db.create_object("t")
    txn = db.begin()
    for page_no in range(8):
        db.write_page(txn, "t", page_no, page("t", page_no, 0))
    db.commit(txn)
    for generation in range(1, 4):
        txn = db.begin()
        db.write_page(txn, "t", 3, page("t", 3, generation))
        before = put_requests(db)
        db.commit(txn)
        assert put_requests(db) - before == 1


def share_one_batch_per_dbspace(monkeypatch):
    """The mutant: one pending list per dbspace, restarted whenever a
    commit stages its first object and emptied by every commit's write."""
    shared = []
    write_pages = CloudDbspace.write_pages
    write_batch = CloudDbspace.write_batch

    def staged_into_shared(self, payloads, txn_id=None, commit_mode=False,
                           batch=None):
        if batch is None:
            return write_pages(self, payloads, txn_id, commit_mode)
        if not batch:
            shared.clear()
        keys = write_pages(self, payloads, txn_id, commit_mode, batch)
        shared.extend(batch[len(batch) - len(keys):])
        return keys

    def write_shared(self, batch, txn_id=None):
        items = list(shared)
        shared.clear()
        write_batch(self, items, txn_id)

    monkeypatch.setattr(CloudDbspace, "write_pages", staged_into_shared)
    monkeypatch.setattr(CloudDbspace, "write_batch", write_shared)


def interleaved_commits(db, sessions=3):
    """``sessions`` writers commit on one node at once; returns the pages
    they committed and each commit's (start, end) on the clock.

    Each object was committed with one page and then dropped from every
    cache.  A writer adds page ``FANOUT``: the tree must grow, and
    staging that page reads the old root from the store — a blocking
    read, so the session yields in the middle of its commit.
    """
    names = [f"t{i}" for i in range(sessions)]
    expected = {}
    for name in names:
        db.create_object(name)
        txn = db.begin()
        db.write_page(txn, name, 0, page(name, 0, 0))
        db.commit(txn)
        expected[(name, 0)] = page(name, 0, 0)
    db.node.invalidate_caches()
    db.ocm.invalidate_all()
    spans = {}

    def writer(name):
        def run(session):
            txn = db.begin()
            db.write_page(txn, name, FANOUT, page(name, FANOUT, 1))
            start = db.clock.now()
            db.commit(txn)
            spans[name] = (start, db.clock.now())
        return run

    scheduler = db.new_session_scheduler()
    start = db.clock.now()
    for i, name in enumerate(names):
        scheduler.spawn(writer(name), at=start + 0.001 * i)
        expected[(name, FANOUT)] = page(name, FANOUT, 1)
    scheduler.run()
    return expected, spans


def unreadable(db, expected):
    """Committed pages that do not read back, from cold caches."""
    db.node.invalidate_caches()
    db.ocm.invalidate_all()
    txn = db.begin()
    missing = []
    for (name, page_no), data in sorted(expected.items()):
        try:
            if db.read_page(txn, name, page_no) != data:
                missing.append((name, page_no))
        except RetriesExhaustedError:
            missing.append((name, page_no))
    db.commit(txn)
    return missing


def test_concurrent_commits_each_write_their_own_batch():
    db = make_db()
    expected, spans = interleaved_commits(db)
    # The commits overlapped: each began before the one before it ended.
    ordered = sorted(spans.values())
    assert all(later[0] < earlier[1]
               for earlier, later in zip(ordered, ordered[1:]))
    assert unreadable(db, expected) == []


def test_a_batch_shared_per_dbspace_loses_committed_pages(monkeypatch):
    share_one_batch_per_dbspace(monkeypatch)
    db = make_db()
    expected, __ = interleaved_commits(db)
    assert unreadable(db, expected)


def failing_puts(db, probability):
    """Set the live store's transient failure rate (1.0: every request)."""
    profile = db.object_store.profile
    object.__setattr__(db.object_store, "profile", ObjectStoreProfile(
        name=profile.name, consistency=profile.consistency,
        transient_failure_probability=probability))


def test_a_failed_commit_write_leaves_only_rollback():
    db = make_db(retry=RetryPolicy(max_attempts=2, initial_backoff=0.01,
                                   backoff_multiplier=1.0, max_backoff=0.01))
    db.create_object("t")
    txn = db.begin()
    for page_no in range(4):
        db.write_page(txn, "t", page_no, page("t", page_no, 0))
    db.commit(txn)
    expected = {("t", page_no): page("t", page_no, 0) for page_no in range(4)}
    txn = db.begin()
    for page_no in range(4):
        db.write_page(txn, "t", page_no, page("t", page_no, 1))
    failing_puts(db, 1.0)
    with pytest.raises(RetriesExhaustedError):
        db.commit(txn)
    failing_puts(db, 0.0)
    # A second commit would publish the keys staged for the failed PUT.
    with pytest.raises(TransactionError, match="roll it back"):
        db.commit(txn)
    db.rollback(txn)
    assert unreadable(db, expected) == []
