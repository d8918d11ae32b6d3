"""Near-instantaneous snapshots and point-in-time restore (Section 5).

Shows the retention mechanism: superseded pages are handed to the snapshot
manager instead of being deleted, snapshots capture only metadata, and a
point-in-time restore rolls the database back — garbage collecting every
key consumed after the snapshot thanks to monotonic key allocation.  It
ends with the store auditor (``repro fsck``): once retention has expired
and the reaper has run, every object on the store is accounted for.

Run with:  PYTHONPATH=src python examples/snapshots_and_restore.py
"""

from repro.core.audit import StoreAuditor
from repro.engine import Database, DatabaseConfig

MIB = 1024 * 1024


def write_generation(db: Database, label: bytes) -> None:
    txn = db.begin()
    for page in range(16):
        db.write_page(txn, "ledger", page,
                      (label + b"-%02d" % page).ljust(2048, b"."))
    db.commit(txn)


def main() -> None:
    db = Database(
        DatabaseConfig(
            buffer_capacity_bytes=8 * MIB,
            page_size=16 * 1024,
            retention_seconds=24 * 3600.0,  # keep superseded pages a day
        )
    )
    db.create_object("ledger")

    write_generation(db, b"monday")
    print(f"monday data committed; {db.object_store.object_count()} objects")

    before = db.clock.now()
    snapshot = db.create_snapshot()
    print(f"snapshot #{snapshot.snapshot_id} taken in "
          f"{db.clock.now() - before:.4f} virtual seconds "
          f"({len(snapshot.catalog_bytes)} bytes of metadata — "
          f"no user data copied)")

    write_generation(db, b"tuesday")
    retained = db.snapshot_manager.retained_count()
    print(f"tuesday overwrote monday; {retained} superseded pages are "
          f"retained (not deleted) for the retention window")

    txn = db.begin()
    print("page 0 now reads:",
          db.read_page(txn, "ledger", 0).split(b".")[0].decode())
    db.commit(txn)

    db.restore_snapshot(snapshot.snapshot_id)
    txn = db.begin()
    print("after point-in-time restore, page 0 reads:",
          db.read_page(txn, "ledger", 0).split(b".")[0].decode())
    db.commit(txn)
    print(f"objects on the store after restore GC: "
          f"{db.object_store.object_count()}")

    # Keep working after the restore; superseded pages go back to the
    # retention FIFO and the background reaper deletes them on expiry.
    write_generation(db, b"wednesday")
    print(f"wednesday committed; {db.snapshot_manager.retained_count()} "
          f"pages retained, {db.object_store.object_count()} objects")
    db.clock.advance(24 * 3600.0 + 1)
    reaped = db.snapshot_manager.reap()
    print(f"retention expired: background reaper deleted {reaped} pages; "
          f"{db.object_store.object_count()} objects remain")
    report = StoreAuditor(db).audit()
    assert report.ok(), report.to_dict()
    print(f"fsck: clean ({report.live} live objects, nothing missing, "
          f"nothing leaked)")


if __name__ == "__main__":
    main()
