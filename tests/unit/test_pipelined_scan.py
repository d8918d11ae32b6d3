"""Unit tests for pipelined scans and session meta-cache bounding."""

import math

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.columnar.schema import make_row_id
from repro.core.recovery import fence_in_flight_writes
from repro.engine import PARALLEL_WINDOW
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import Tracer
from tests.conftest import lists, make_db


def load_table(db, rows=2000, partitions=2, rows_per_page=64):
    store = ColumnStore(db)
    schema = TableSchema(
        "items",
        (
            ColumnSchema("key", "int"),
            ColumnSchema("price", "float"),
        ),
        partition_column="key",
        partition_count=partitions,
        rows_per_page=rows_per_page,
    )
    store.create_table(schema)
    rng = DeterministicRng(5, "items")
    data = [(i, round(rng.uniform(1, 100), 2)) for i in range(1, rows + 1)]
    store.load("items", data)
    return store


def cold_engine(**overrides):
    """A loaded engine with every cache dropped (scan reads hit S3)."""
    db = make_db(**overrides)
    store = load_table(db)
    db.node.invalidate_caches()
    if db.ocm is not None:
        db.ocm.invalidate_all()
    return db, store


def scan(db, prefetch_window=8):
    start = db.clock.now()
    with QueryContext(db, prefetch_window=prefetch_window) as ctx:
        rel = ctx.read("items", ["key", "price"])
    return rel, db.clock.now() - start


def test_pipelined_scan_returns_identical_rows():
    serial_db, __ = cold_engine(pipelined_prefetch=False)
    piped_db, __ = cold_engine(pipelined_prefetch=True)
    serial_rel, __s = scan(serial_db)
    piped_rel, __p = scan(piped_db)
    assert lists(serial_rel) == lists(piped_rel)


def test_pipelined_scan_is_faster_on_the_virtual_clock():
    serial_db, __ = cold_engine(pipelined_prefetch=False)
    piped_db, __ = cold_engine(pipelined_prefetch=True)
    __, serial_time = scan(serial_db)
    __, piped_time = scan(piped_db)
    assert piped_time < serial_time


def test_pipelined_flag_resolves_from_session_config():
    db, __ = cold_engine(pipelined_prefetch=True)
    with QueryContext(db) as ctx:
        assert ctx.pipelined is True


def test_pipeline_overlap_accounting():
    """Batch N+1's I/O spans genuinely overlap batch N's decode spans."""
    db, __ = cold_engine(pipelined_prefetch=True)
    tracer = Tracer(db.clock)
    db.attach_tracer(tracer)
    __, elapsed = scan(db)
    spans = [s for root in tracer.all_spans() for s in root.walk()]
    issues = [s for s in spans if s.key == "buffer/prefetch"]
    decodes = [s for s in spans if s.key == "query/decode"]
    assert issues and decodes
    overlap = sum(
        max(0.0, min(issue.end, decode.end) - max(issue.start, decode.start))
        for issue in issues
        for decode in decodes
    )
    assert overlap > 0.0
    # The overlap is the win: strictly alternating I/O and decode would
    # have taken at least `overlap` longer.
    assert overlap < elapsed


def test_pipelined_counter_increments():
    db, __ = cold_engine(pipelined_prefetch=True)
    scan(db)
    assert db.buffer.stats()["pipelined_prefetches"] > 0
    serial_db, __ = cold_engine(pipelined_prefetch=False)
    scan(serial_db)
    assert serial_db.buffer.stats().get("pipelined_prefetches", 0) == 0


def test_pipelined_scan_works_without_ocm():
    """DirectObjectIO and BlockDbspace also serve the timed read path."""
    for overrides in ({"ocm_enabled": False}, {"user_volume": "ebs"}):
        db, __ = cold_engine(pipelined_prefetch=True, **overrides)
        rel, __t = scan(db)
        assert sorted(rel["key"]) == list(range(1, 2001))


def _cold_deep_column():
    """A cold engine and a read handle on a 1000-page column: past one
    blockmap node's fanout of 512, so planning a page reads a node."""
    db = make_db()
    store = load_table(db, rows=2000, partitions=1, rows_per_page=2)
    db.node.invalidate_caches()
    db.ocm.invalidate_all()
    txn = db.begin()
    name = store.schema("items").column_object("key", 0)
    return db, db.open_for_read(txn, name)


def test_prefetch_issues_its_reads_once_their_locators_are_known():
    """Planning under a cold blockmap node is a blocking read; the data
    reads start when it ends, so a pipelined prefetch completes exactly
    when the blocking one of the same pages does."""
    blocking_db, blocking = _cold_deep_column()
    blocking_db.buffer.prefetch(blocking, [900, 901], scan_hint=True)
    db, handle = _cold_deep_column()
    start = db.clock.now()
    done = db.buffer.prefetch_at([(handle, [900, 901])], start,
                                 scan_hint=True)
    planned = db.clock.now()
    assert planned > start  # the blockmap node read moved the clock
    assert done > planned
    assert done == blocking_db.clock.now()
    assert db.buffer.stats()["pipelined_prefetches"] == 2
    assert blocking_db.buffer.stats().get("pipelined_prefetches", 0) == 0


def test_row_lookup_fetches_every_page_in_one_batch():
    """``read_rows`` (the HG-index path) reads every (column, page) it
    needs together: a handful of request round trips, not one per page."""
    db = make_db()
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "items",
        (ColumnSchema("key", "int"), ColumnSchema("a", "float"),
         ColumnSchema("b", "int")),
        partition_column="key", partition_count=2, rows_per_page=64,
    ))
    store.load("items", [(i, i * 0.5, i % 7) for i in range(1, 6001)])
    # Let every object the load wrote become visible first: a lookup
    # timed while the last ones are still settling waits on not-found
    # retries, which measure the load's end, not the batch.
    fence_in_flight_writes(db.user_dbspace)
    db.node.invalidate_caches()
    db.ocm.invalidate_all()
    columns = ["key", "a", "b"]
    pages = [(part, page) for part in range(2) for page in range(2, 22)]
    with QueryContext(db) as ctx:
        # Warm the metadata and every blockmap, then time one cold page.
        ctx.read_rows("items", columns, [make_row_id(0, 0), make_row_id(1, 0)])
        start = db.clock.now()
        db.read_page(ctx.txn, store.schema("items").column_object("key", 0), 1)
        round_trip = db.clock.now() - start
        start = db.clock.now()
        rel = lists(ctx.read_rows("items", columns, [
            make_row_id(part, 64 * page + 5) for part, page in pages
        ]))
        elapsed = db.clock.now() - start
    assert len(rel["key"]) == len(pages)
    assert rel["b"] == [key % 7 for key in rel["key"]]
    bound = math.ceil(len(pages) * len(columns) / PARALLEL_WINDOW)
    assert elapsed <= bound * round_trip


def test_serial_default_unchanged_by_feature_flags():
    """Default config produces bit-identical scan timing with the seed
    path: the pipelined code must not perturb the RNG or clock."""
    baseline_db, __ = cold_engine()
    flagged_db, __ = cold_engine()  # same config: sanity determinism check
    __, t1 = scan(baseline_db)
    __, t2 = scan(flagged_db)
    assert t1 == t2


# --------------------------------------------------------------------- #
# session meta-cache bounding (satellite)
# --------------------------------------------------------------------- #

def test_meta_cache_evicts_superseded_versions():
    db = make_db()
    store = load_table(db, rows=500, partitions=1)
    with QueryContext(db) as ctx:
        ctx.read("items", ["key"])
    cache = db._query_meta_cache
    meta_versions = [k for k in cache if k[0] == "items/__meta"]
    assert len(meta_versions) == 1
    for round_no in range(5):
        store.append("items", [(10_000 + round_no, 1.0)])
        with QueryContext(db) as ctx:
            ctx.read("items", ["key"])
    meta_versions = [k for k in cache if k[0] == "items/__meta"]
    # One commit per append bumped the version; superseded parses are gone.
    assert len(meta_versions) == 1
    zon_versions = [k for k in cache if k[0].endswith("__zonemap")]
    assert all(
        len([k for k in cache if k[0] == name]) == 1
        for name, __v in zon_versions
    )
