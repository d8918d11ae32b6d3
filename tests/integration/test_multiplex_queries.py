"""Integration: columnar queries executed on multiplex secondary nodes.

The coordinator loads TPC-H-style data; reader nodes execute queries with
their own buffer managers and OCMs over the shared object store — the
cluster shape behind the paper's Figure 9.
"""

import pytest

from repro.columnar import ColumnSchema, ColumnStore, QueryContext, TableSchema
from repro.columnar.exec import group_by, order_by
from repro.core.multiplex import Multiplex, MultiplexConfig
from repro.engine import DatabaseConfig
from repro.sim.rng import DeterministicRng
from tests.conftest import lists

MIB = 1024 * 1024


@pytest.fixture
def cluster():
    mx = Multiplex(
        DatabaseConfig(buffer_capacity_bytes=8 * MIB, page_size=16 * 1024,
                       ocm_capacity_bytes=32 * MIB),
        MultiplexConfig(writers=1, readers=2,
                        secondary_buffer_bytes=4 * MIB,
                        secondary_ocm_bytes=16 * MIB),
    )
    store = ColumnStore(mx.coordinator)
    store.create_table(TableSchema(
        "metrics",
        (
            ColumnSchema("id", "int", hg_index=True),
            ColumnSchema("series", "str"),
            ColumnSchema("value", "float"),
        ),
        partition_column="id",
        partition_count=2,
        rows_per_page=256,
    ))
    rng = DeterministicRng(77, "metrics")
    rows = [
        (i, rng.choice(["cpu", "mem", "net"]), round(rng.uniform(0, 100), 2))
        for i in range(1, 3001)
    ]
    store.load("metrics", rows)
    return mx, store, rows


def test_readers_run_full_queries(cluster):
    mx, __, rows = cluster
    reader = mx.node("reader-1")
    with QueryContext(reader) as ctx:
        rel = ctx.read("metrics", ["series", "value"])
        agg = group_by(ctx, rel, ["series"],
                       {"total": ("sum", "value"), "n": ("count", None)})
        result = lists(order_by(ctx, agg, [("series", False)]))
    expected = {}
    for __, series, value in rows:
        acc = expected.setdefault(series, [0.0, 0])
        acc[0] += value
        acc[1] += 1
    assert result["series"] == sorted(expected)
    for series, total, count in zip(result["series"], result["total"],
                                    result["n"]):
        assert total == pytest.approx(expected[series][0])
        assert count == expected[series][1]


def test_two_readers_agree(cluster):
    mx, __, __ = cluster
    results = []
    for node_id in ("reader-1", "reader-2"):
        with QueryContext(mx.node(node_id)) as ctx:
            results.append(lists(ctx.read("metrics", ["id"],
                                          {"id": (100, 120)})))
    assert results[0] == results[1]


def test_reader_caches_fill_independently(cluster):
    mx, __, __ = cluster
    reader = mx.node("reader-1")
    with QueryContext(reader) as ctx:
        ctx.read("metrics", ["value"])
    assert reader.ocm is not None
    assert reader.ocm.entry_count() > 0
    other = mx.node("reader-2")
    assert other.ocm.entry_count() == 0  # untouched node stays cold


def test_reader_sees_writer_update_after_commit(cluster):
    mx, store, __ = cluster
    writer = mx.node("writer-1")
    txn = writer.begin()
    handle = writer.open_for_write(txn, "metrics/value#p0")
    # Rewriting raw pages through the writer is engine-level; use a new
    # table instead to keep the columnar metadata coherent.
    writer.rollback(txn)

    coordinator_store = store
    txn = mx.coordinator.begin()
    coordinator_store.load(
        "metrics", [(1, "cpu", 42.0)], txn=txn
    )
    mx.coordinator.commit(txn)
    reader = mx.node("reader-2")
    if hasattr(reader, "_query_meta_cache"):
        reader._query_meta_cache.clear()
    with QueryContext(reader) as ctx:
        rel = ctx.read("metrics", ["id", "value"])
    assert rel["id"] == [1]
    assert rel["value"] == [42.0]
