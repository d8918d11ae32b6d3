"""Integration tests: the full TPC-H pipeline over the storage stack."""

import pytest

from repro.columnar import ColumnStore, QueryContext
from repro.columnar.query import n_rows
from repro.tpch import load_tpch, power_run, run_query
from repro.tpch.runner import throughput_streams
from tests.conftest import lists, make_db

MIB = 1024 * 1024
SF = 0.002


def test_load_row_counts(tiny_tpch):
    __, __, states = tiny_tpch
    generatorless_expectations = {
        "region": 5,
        "nation": 25,
    }
    for table, expected in generatorless_expectations.items():
        assert states[table].total_rows == expected
    assert states["orders"].total_rows == int(1_500_000 * SF)
    assert states["lineitem"].total_rows >= states["orders"].total_rows


def test_loaded_data_is_compressed(tiny_tpch):
    database, __, states = tiny_tpch
    # Rough raw size: lineitem alone at ~120 bytes/row.
    raw_estimate = states["lineitem"].total_rows * 120
    assert database.user_data_bytes() < raw_estimate


def test_power_run_small_subset():
    db = make_db(buffer_capacity_bytes=4 * MIB, ocm_capacity_bytes=16 * MIB)
    store = ColumnStore(db)
    load_tpch(store, SF, partitions=2, rows_per_page=512)
    times = power_run(db, SF, query_numbers=[1, 6])
    assert times[1] > 0 and times[6] > 0
    # Q1 scans 7 lineitem columns, Q6 four with a tight date range:
    # Q6 must be cheaper.
    assert times[6] < times[1]


def test_queries_survive_cache_pressure():
    """Results identical whether data fits in RAM or constantly evicts."""
    roomy = make_db(buffer_capacity_bytes=64 * MIB,
                    ocm_capacity_bytes=128 * MIB)
    load_tpch(ColumnStore(roomy), SF, partitions=2, rows_per_page=512)
    with QueryContext(roomy) as ctx:
        expected = lists(run_query(ctx, 5, SF))

    tight = make_db(buffer_capacity_bytes=1 * MIB,
                    ocm_capacity_bytes=2 * MIB)
    load_tpch(ColumnStore(tight), SF, partitions=2, rows_per_page=512)
    with QueryContext(tight) as ctx:
        got = lists(run_query(ctx, 5, SF))
    assert got == expected


def test_queries_after_crash_recovery():
    db = make_db(buffer_capacity_bytes=8 * MIB)
    load_tpch(ColumnStore(db), SF, partitions=2, rows_per_page=512)
    with QueryContext(db) as ctx:
        before = lists(run_query(ctx, 6, SF))
    db.crash()
    db.restart()
    with QueryContext(db) as ctx:
        after = lists(run_query(ctx, 6, SF))
    assert before == after


def test_throughput_streams_balance():
    sessions = []
    for __ in range(2):
        db = make_db(buffer_capacity_bytes=8 * MIB)
        load_tpch(ColumnStore(db), 0.001, partitions=2, rows_per_page=512)
        sessions.append(db)
    total, per_node = throughput_streams(sessions, 0.001, n_streams=4)
    assert len(per_node) == 2
    assert total == max(per_node)
    assert all(t > 0 for t in per_node)


def test_tpch_on_block_volume_matches_cloud():
    cloud = make_db(buffer_capacity_bytes=8 * MIB)
    load_tpch(ColumnStore(cloud), 0.001, partitions=2, rows_per_page=512)
    with QueryContext(cloud) as ctx:
        cloud_result = lists(run_query(ctx, 1, 0.001))

    block = make_db(user_volume="ebs", buffer_capacity_bytes=8 * MIB)
    load_tpch(ColumnStore(block), 0.001, partitions=2, rows_per_page=512)
    with QueryContext(block) as ctx:
        block_result = lists(run_query(ctx, 1, 0.001))
    assert cloud_result == block_result
