"""A tour of the implemented extensions and future-work features.

1. read-only views over past snapshots (paper future work #1),
2. multiple cloud dbspaces with custom page sizes (future work #3) and an
   Azure-Blob-style provider, plus moving a table between providers,
3. page encryption end to end (Section 4),
4. conventional full + incremental backups and disaster restore.

Run with:  python examples/extensions_tour.py
"""

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.core.backup import BackupManager
from repro.engine import Database, DatabaseConfig
from repro.objectstore import InMemoryObjectStore
from repro.objectstore.s3sim import AZURE_BLOB_PROFILE

MIB = 1024 * 1024


def main() -> None:
    db = Database(
        DatabaseConfig(
            buffer_capacity_bytes=8 * MIB,
            page_size=16 * 1024,
            retention_seconds=24 * 3600.0,
            encryption_key=b"an-example-32-byte-database-key!",
        )
    )
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "accounts",
        (ColumnSchema("id", "int"), ColumnSchema("balance", "float")),
        rows_per_page=256,
    ))
    store.load("accounts", [(i, 100.0) for i in range(1, 1001)])
    print("loaded 1000 accounts (encrypted at rest: no plaintext on S3)")

    # --- 1. time travel via a snapshot view -------------------------- #
    snapshot = db.create_snapshot()
    txn = db.begin()
    store.load("accounts", [(i, 250.0) for i in range(1, 501)], txn=txn)
    db.commit(txn)
    with QueryContext(db) as ctx:
        live_total = sum(ctx.read("accounts", ["balance"])["balance"])
    view = db.open_snapshot_view(snapshot.snapshot_id)
    with QueryContext(view) as ctx:
        past_total = sum(ctx.read("accounts", ["balance"])["balance"])
    print(f"live total balance: {live_total:.0f}; "
          f"as of snapshot #{snapshot.snapshot_id}: {past_total:.0f} "
          "(no restore needed)")

    # --- 2. multi-provider dbspaces + moving a table ------------------ #
    db.create_cloud_dbspace("azure-archive", profile=AZURE_BLOB_PROFILE,
                            page_size=64 * 1024)
    pages = store.move_table("accounts", "azure-archive")
    db.txn_manager.collect_garbage()
    print(f"moved 'accounts' to the Azure-style dbspace ({pages} pages "
          f"rewritten; 64 KiB pages there vs 16 KiB default)")
    with QueryContext(db) as ctx:
        moved_total = sum(ctx.read("accounts", ["balance"])["balance"])
    assert moved_total == live_total
    print("query results identical after the move")

    # --- 3. conventional backups -------------------------------------- #
    vault = InMemoryObjectStore()
    backups = BackupManager(db, vault)
    full = backups.full_backup()
    txn = db.begin()
    store.load("accounts", [(i, 999.0) for i in range(1, 11)], txn=txn)
    db.commit(txn)
    incremental = backups.incremental_backup(full)
    print(f"full backup: {len(full.objects)} objects; incremental since: "
          f"{len(incremental.objects)} objects")

    # Disaster: the archive bucket is lost entirely.
    archive = db.node.dbspace("azure-archive")
    for name in list(archive.io.client.store.list_keys()):
        archive.io.client.store.delete(name)
    restored = backups.restore(incremental.backup_id)
    with QueryContext(db) as ctx:
        rel = ctx.read("accounts", ["balance"])
    print(f"bucket wiped; restore copied {restored} objects back; "
          f"{len(rel['balance'])} rows intact, balances "
          f"{sorted(set(rel['balance'].tolist()))}")


if __name__ == "__main__":
    main()
