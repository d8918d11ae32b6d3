"""Datagen golden: the exact rows ``TpchGenerator.all_tables`` returns.

Every TPC-H query result, stored object and benchmark figure starts from
these rows, so they are pinned here value for value: per (scale factor,
seed) and per table, the sha256 of ``repr(rows)``.  ``repr`` keeps the
value types in the hash (``1`` and ``1.0`` differ), and the float bits.

The grid covers the scale factors the suite and the tests load (0.02,
0.01, 0.002), the row-count floors of tiny scale factors (0.001), and
several seeds for each.

Regenerate (``python tests/unit/test_datagen_golden.py``) only when a
change to the generated data is intended and called out.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.tpch.datagen import TpchGenerator

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "tpch_datagen_golden.json"
GRID = (
    [(0.02, 1), (0.01, 1), (0.01, 7)]
    + [(sf, seed) for sf in (0.002, 0.003, 0.004) for seed in (0, 7, 11)]
    + [(0.001, 3), (0.001, 4)]
)


def _key(scale_factor: float, seed: int) -> str:
    return f"sf={scale_factor!r}/seed={seed}"


def table_hashes(scale_factor: float, seed: int) -> dict:
    tables = TpchGenerator(scale_factor, seed).all_tables()
    return {
        name: {"rows": len(rows),
               "sha256": hashlib.sha256(repr(rows).encode()).hexdigest()}
        for name, rows in tables.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scale_factor,seed", GRID,
                         ids=[_key(sf, seed) for sf, seed in GRID])
def test_all_tables_match_golden(golden, scale_factor, seed):
    assert table_hashes(scale_factor, seed) == golden[_key(scale_factor, seed)]


def test_golden_covers_the_grid_and_every_table(golden):
    assert sorted(golden) == sorted(_key(sf, seed) for sf, seed in GRID)
    for tables in golden.values():
        assert sorted(tables) == sorted(
            ["region", "nation", "supplier", "customer", "part", "partsupp",
             "orders", "lineitem"])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {_key(sf, seed): table_hashes(sf, seed) for sf, seed in GRID},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
