"""Memory guard: a freelist costs what has been allocated from it.

A default engine's system volume has 2**24 blocks, a bench engine's 2**26
and an EBS bench engine's user volume 2**30.  Their full bitmaps are 2, 8
and 128 MiB, and a checkpoint or a recovery used to copy each of them.
Here nothing allocates more than a few blocks, so the bitmaps the
freelist module holds, live and in the checkpoint, must stay small.
"""

import tracemalloc

from repro.bench.configs import make_engine
from repro.engine import Database, DatabaseConfig

FREELIST_BYTES_LIMIT = 1 << 20


def system_freelist(db):
    """The system volume's freelist as the last checkpoint holds it."""
    return db.log.last_checkpoint_state()["freelists"]["system"]


def test_engines_hold_no_device_sized_bitmaps():
    tracemalloc.start()
    try:
        db = Database(DatabaseConfig())
        assert system_freelist(db).total_blocks == 1 << 24
        db.checkpoint()
        db.crash()
        db.restart()

        ebs = make_engine("m5ad.24xlarge", "ebs", 0.01)
        assert system_freelist(ebs).total_blocks == 1 << 26
        assert ebs.user_dbspace.freelist.total_blocks == 1 << 30
        ebs.create_object("t")
        txn = ebs.begin()
        for page_no in range(4):
            ebs.write_page(txn, "t", page_no, bytes([page_no]) * 100)
        ebs.commit(txn)
        ebs.checkpoint()
        assert ebs.user_dbspace.freelist.used_blocks > 0

        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/blockstore/freelist.py")]
    ).statistics("filename")
    assert sum(stat.size for stat in held) < FREELIST_BYTES_LIMIT
