"""Property tests: the one-pass HG-index build equals the incremental one.

A bulk load builds each HG index once from the column's values and row
ids (``HgIndex.build``); an append extends the stored index with
``add_rows``.  Both must leave byte-identical ``to_bytes()``, including
when equal values recur in several partitions, whose row ids are not
consecutive across the partition boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.hgindex import HgIndex
from repro.columnar.schema import make_row_id

partitions = st.lists(
    st.lists(st.integers(0, 6), max_size=40), min_size=1, max_size=4
)


def _both_ways(parts, page):
    incremental = HgIndex()
    values, row_ids = [], []
    for partition, part in enumerate(parts):
        for start in range(0, len(part), page):
            incremental.add_rows(part[start:start + page],
                                 make_row_id(partition, start))
        values.extend(part)
        row_ids.extend(make_row_id(partition, i) for i in range(len(part)))
    return incremental, values, np.array(row_ids, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(partitions, st.booleans(), st.integers(1, 16))
def test_bulk_build_equals_incremental_adds(parts, presorted, page):
    if presorted:
        parts = [sorted(part) for part in parts]
    texts = [[f"v{value}" for value in part] for part in parts]
    for parted in (parts, texts):
        incremental, values, row_ids = _both_ways(parted, page)
        as_objects = np.empty(len(values), dtype=object)
        as_objects[:] = values
        columns = [as_objects]
        if parted is parts:
            columns.append(np.array(values, dtype=np.int64))
        for column in columns:
            bulk = HgIndex.build(column, row_ids)
            assert bulk.to_bytes() == incremental.to_bytes()
            assert bulk.distinct_count == incremental.distinct_count


def test_a_value_in_every_partition_keeps_one_range_per_partition():
    parts = [[1, 1, 2], [2, 1], [1]]
    incremental, values, row_ids = _both_ways(parts, 2)
    bulk = HgIndex.build(np.array(values), row_ids)
    assert bulk.row_ranges(1) == [
        (make_row_id(0, 0), make_row_id(0, 1)),
        (make_row_id(1, 1), make_row_id(1, 1)),
        (make_row_id(2, 0), make_row_id(2, 0)),
    ]
    assert bulk.to_bytes() == incremental.to_bytes()


def test_rows_that_run_across_a_boundary_merge_into_one_range():
    """``add`` merges any consecutive row ids; so does the bulk build."""
    values = np.array([5, 5, 5, 5])
    row_ids = np.array([7, 8, 9, 10])
    incremental = HgIndex()
    incremental.add_rows([5, 5], 7)
    incremental.add_rows([5, 5], 9)
    assert HgIndex.build(values, row_ids).row_ranges(5) == [(7, 10)]
    assert HgIndex.build(values, row_ids).to_bytes() == incremental.to_bytes()


def test_empty_build():
    assert HgIndex.build(np.array([], dtype=np.int64),
                         np.array([], dtype=np.int64)).to_bytes() == b"[]"
