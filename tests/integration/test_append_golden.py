"""Append characterisation golden: bytes, virtual time and CPU per append.

``load_objects_golden.json`` pins the bytes of one ``orders`` append but
neither its clock nor its CPU ops.  This file pins, after every
``ColumnStore.append`` of twelve shapes, a sha256 over every stored
object's key and bytes, ``clock.now()`` and ``cpu.total_ops``.

The shapes cross 1, 2 and 3 partitions, ``rows_per_page`` 64 and 100,
and two batch sequences: ``[37, 64, 200]`` (a tail rewrite, a whole
page, several pages) and ``[1, 1, 130]`` (one-row tails).  Every table
has an HG index on an int and on a str column, a date column and a
float column holding ``-0.0`` beside ``0.0``; appended keys fall below
the first partition bound, between loaded keys and past the last one.

Regenerate (``python tests/integration/test_append_golden.py``) only
when a change to what an append stores, charges or waits for is
intended and called out.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.columnar import ColumnSchema, ColumnStore, TableSchema
from repro.engine import Database, DatabaseConfig

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "append_shapes_golden.json"
MIB = 1024 * 1024
BASE_ROWS = 150
BATCHES = {"a": (37, 64, 200), "b": (1, 1, 130)}
SHAPES = [
    f"p{partitions}-r{rows_per_page}-{batches}"
    for partitions, rows_per_page, batches in itertools.product(
        (1, 2, 3), (64, 100), sorted(BATCHES))
]


def _float(i: int) -> float:
    return (-0.0, 0.0, 2.5 * i - 40.0)[i % 3]


def base_rows():
    return [
        (10 + 3 * i, f"s{i % 7}", 729000 + i % 40, _float(i))
        for i in range(BASE_ROWS)
    ]


def batch_rows(step: int, count: int):
    """Keys from 0 (below every bound) to past the loaded maximum."""
    return [
        ((step * 131 + 37 * m) % 480, f"s{(3 * m + step) % 11}",
         729020 + m % 60, _float(m + step))
        for m in range(count)
    ]


def digest(db) -> str:
    objects = db.object_store
    sha = hashlib.sha256()
    for key in objects.all_keys():
        sha.update(key.encode())
        sha.update(objects.latest_data(key))
    return sha.hexdigest()[:16]


def run_shape(shape: str):
    partitions, rows_per_page, batches = shape.split("-")
    db = Database(DatabaseConfig(buffer_capacity_bytes=8 * MIB,
                                 ocm_capacity_bytes=32 * MIB,
                                 page_size=16 * 1024))
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "t",
        (
            ColumnSchema("k", "int", hg_index=True),
            ColumnSchema("s", "str", hg_index=True),
            ColumnSchema("when", "date"),
            ColumnSchema("x", "float"),
        ),
        partition_column="k",
        partition_count=int(partitions[1:]),
        rows_per_page=int(rows_per_page[1:]),
    ))
    store.load("t", base_rows())
    observed = [[digest(db), db.clock.now(), db.cpu.total_ops]]
    for step, count in enumerate(BATCHES[batches]):
        store.append("t", batch_rows(step, count))
        observed.append([digest(db), db.clock.now(), db.cpu.total_ops])
    return observed


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("shape", SHAPES)
def test_append_stores_charges_and_waits_as_recorded(golden, shape):
    observed = json.loads(json.dumps(run_shape(shape)))
    for step, (want, got) in enumerate(zip(golden[shape], observed)):
        assert got == want, (shape, step)
    assert len(observed) == len(golden[shape])


def test_golden_covers_twelve_shapes(golden):
    assert sorted(golden) == sorted(SHAPES) and len(SHAPES) == 12


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {shape: run_shape(shape) for shape in SHAPES}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
