"""Byte pin for what the engine persists and charges.

One fixed script per user volume kind drives every format the commit,
GC, snapshot and recovery paths write: log records (commit records with
their RF/RB bitmaps, DDL, GC and snapshot records), checkpoints (catalog,
freelist images, commit chain), the catalog and the snapshot manager's
FIFO metadata.  The test pins their sha256 digests and each checkpoint's
charged length, so a refactor of those paths must leave every persisted
and charged byte as it was.
"""

import hashlib
import json

from repro.blockstore.freelist import Freelist
from repro.core.log import _charged_length
from tests.conftest import make_db


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write(db, pages, tag):
    txn = db.begin()
    for page in pages:
        db.write_page(txn, "t", page, (b"%s-%d" % (tag, page)).ljust(900, b"."))
    return txn


def spy_checkpoints(db):
    """Record the charged length of every checkpoint ``db`` writes."""
    lengths = []
    log = db.log
    original = log.checkpoint

    def checkpoint(state):
        lengths.append(_charged_length(state))
        return original(state)

    log.checkpoint = checkpoint
    return lengths


def image(value):
    """A checkpoint value's bytes, as the checkpoint charges them."""
    if isinstance(value, Freelist):
        value = value.to_bytes()
    return sha(value)


def digest(db, lengths, snapshots=()):
    records = "\n".join(record.to_json() for record in db.log.records())
    state = db.log.last_checkpoint_state()
    out = {
        "log": sha(records.encode("utf-8")),
        "checkpoint_lengths": lengths,
        "checkpoint": sha(json.dumps(state, default=image,
                                     sort_keys=True).encode("utf-8")),
        "catalog": sha(db.catalog.to_bytes()),
        "system_write_bytes": db.system_device.metrics.counter(
            "write_bytes").value,
    }
    for snapshot in snapshots:
        out[f"snapshot{snapshot.snapshot_id}"] = (
            sha(snapshot.catalog_bytes), sha(snapshot.snapmgr_metadata))
    if db.snapshot_manager is not None:
        out["fifo"] = sha(db.snapshot_manager.metadata_bytes())
    return out


def cloud_script():
    """Create, commit, snapshot, rewrite, GC, checkpoint, crash, restart,
    restore."""
    db = make_db(retention_seconds=100.0)
    lengths = spy_checkpoints(db)
    db.create_object("t")
    db.commit(write(db, range(4), b"v1"))
    first = db.create_snapshot()
    txn = write(db, [0, 1], b"v2")
    db.write_page(txn, "t", 0, b"v3".ljust(900, b"."))  # local garbage
    db.commit(txn)
    db.rollback(write(db, [2], b"gone"))
    db.txn_manager.collect_garbage()
    second = db.create_snapshot()
    db.clock.advance(30.0)
    db.commit(write(db, [3, 4], b"v4"))
    db.snapshot_manager.reap()
    db.checkpoint()
    write(db, [5], b"orphan")
    db.crash()
    db.restart()
    db.restore_snapshot(first.snapshot_id)
    db.commit(write(db, [1], b"v5"))
    return digest(db, lengths, (first, second))


def block_script():
    """The same protocol on an EBS user dbspace: freelist images in the
    checkpoints, block locators in RF/RB."""
    db = make_db(user_volume="ebs", user_volume_size_bytes=1 << 30)
    lengths = spy_checkpoints(db)
    db.create_object("t")
    db.commit(write(db, range(4), b"v1"))
    txn = write(db, [0, 1], b"v2")
    db.write_page(txn, "t", 0, b"v3".ljust(900, b"."))
    db.commit(txn)
    db.rollback(write(db, [2], b"gone"))
    db.checkpoint()
    db.commit(write(db, [3], b"v4"))
    write(db, [5], b"orphan")
    db.crash()
    db.restart()
    db.commit(write(db, [1], b"v5"))
    return digest(db, lengths)


CLOUD = {
    "log": "ea3f20057cf1f732839404dea09f9d3ee6fa8088d8b6ebb74f7751450c47008f",
    "checkpoint_lengths": [11185325, 11185266, 11185266],
    "checkpoint":
        "d80cb7929b835754b0aff967b2c0ce3e792f568ed16aecd035155ff4be006905",
    "catalog":
        "75e07fd5f0a4b09905750cc1e1afdbf01c9953704479cc06ba3fb7b6922cfe6e",
    "system_write_bytes": 44755367.0,
    "snapshot1": (
        "c9dabc69be3db5b7ad57d97aec83a6a5e5eb10aaf4d874a49e18a6564ea30967",
        "ac07cf883f3dfacbb1fa6337d85692ff14781263e3c80ed297d01ca06a7940fe",
    ),
    "snapshot2": (
        "fa8087013b5ed39a4c61b9c4535a70b6eebf62c5cd5ae26818773f1d6d7e5524",
        "004c62df25583f04e08ed811bdf8ebd87b52c3cc0bd54b7d6b7a17a4197a4115",
    ),
    "fifo": "cacb1429dae855f74d41d07b2f45464f8f46ed8d1e7788448d414ff619e22d64",
}

BLOCK = {
    "log": "7b246bab3dda16d67744f75f6e7845cf90dc31f1f77f677887fd02030dac3f6f",
    "checkpoint_lengths": [11360050, 11360050],
    "checkpoint":
        "d01821e87fa8517455f72d652309d52dc37f4fca955e0ec88e498d2ac4c04ab8",
    "catalog":
        "b38cc9f2fa8320e7c8f249f3ad305b383922f959f5182eb199d26f1c773dab7b",
    "system_write_bytes": 34090366.0,
}


def test_cloud_formats_are_pinned():
    assert cloud_script() == CLOUD


def test_block_formats_are_pinned():
    assert block_script() == BLOCK
