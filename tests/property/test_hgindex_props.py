"""Property tests: the one-pass HG-index build and extend equal the
row-at-a-time insert.

A bulk load builds each HG index once from the column's values and row
ids (``HgIndex.build``); an append extends the stored index with the new
rows (``HgIndex.extend``).  Both must leave the ``to_bytes()`` that
adding the rows one at a time (``tests/reference_columnar.py``) leaves,
including when equal values recur in several partitions, whose row ids
are not consecutive across the partition boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.hgindex import HgIndex
from repro.columnar.schema import make_row_id
from tests.reference_columnar import add_rows

partitions = st.lists(
    st.lists(st.integers(0, 6), max_size=40), min_size=1, max_size=4
)


def _both_ways(parts, page):
    incremental = HgIndex()
    values, row_ids = [], []
    for partition, part in enumerate(parts):
        for start in range(0, len(part), page):
            add_rows(incremental, part[start:start + page],
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
    """``add`` merges any consecutive row ids; so do build and extend."""
    values = np.array([5, 5, 5, 5])
    row_ids = np.array([7, 8, 9, 10])
    incremental = HgIndex()
    add_rows(incremental, [5, 5], 7)
    add_rows(incremental, [5, 5], 9)
    extended = HgIndex.build(values[:2], row_ids[:2])
    extended.extend(values[2:], row_ids[2:])
    for index in (HgIndex.build(values, row_ids), extended):
        assert index.row_ranges(5) == [(7, 10)]
        assert index.to_bytes() == incremental.to_bytes()


def _column(values, as_objects):
    if not as_objects:
        return np.array(values, dtype=np.int64)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


@settings(max_examples=150, deadline=None)
@given(partitions, st.lists(partitions, max_size=3), st.booleans(),
       st.integers(1, 16))
def test_extend_equals_incremental_adds(base, appends, as_text, page):
    """Each append grows every partition past its last row id; ``extend``
    of all its rows leaves what adding them one at a time leaves."""
    width = max([len(base)] + [len(batch) for batch in appends])
    if as_text:
        base = [[f"v{value}" for value in part] for part in base]
        appends = [[[f"v{value}" for value in part] for part in batch]
                   for batch in appends]
    incremental, values, row_ids = _both_ways(base, page)
    extended = HgIndex.build(_column(values, True), row_ids)
    rows = [len(part) for part in base] + [0] * (width - len(base))
    for batch in appends:
        values, ids = [], []
        for partition, part in enumerate(batch):
            first = make_row_id(partition, rows[partition])
            add_rows(incremental, part, first)
            values.extend(part)
            ids.extend(range(first, first + len(part)))
            rows[partition] += len(part)
        if ids:
            extended.extend(_column(values, as_text),
                            np.array(ids, dtype=np.int64))
        assert extended.to_bytes() == incremental.to_bytes()
        assert extended.distinct_count == incremental.distinct_count


def test_empty_build():
    assert HgIndex.build(np.array([], dtype=np.int64),
                         np.array([], dtype=np.int64)).to_bytes() == b"[]"
