"""Load-objects golden: the bytes a columnar bulk load and append store.

``store_bytes_per_user_byte`` checks only sizes, and
``test_profile_equivalence.py`` compares two profiles of the same code;
this file pins what the load path writes against a recorded run.  TPC-H
at SF 0.002 is loaded under ``DatabaseConfig()`` and under
``DatabaseConfig.paper()``, then one ``ColumnStore.append`` adds churn
rows to ``orders`` (keys spread over every partition, so routing, the
tail-page rewrite and the incremental HG index all run).

Per profile it pins every stored key with a sha256 of its bytes and the
CRC-32C the store recorded at PUT admission, and per table the sha256 of
the zone-map, HG-index and meta blobs.

Regenerate (``python tests/integration/test_load_objects_golden.py``)
only when a change to stored bytes is intended and called out.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.configs import load_engine
from repro.checksum import crc32c
from repro.columnar.blob import read_blob
from repro.engine import PAPER_IO
from repro.tpch.datagen import TpchGenerator

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "load_objects_golden.json"
SCALE_FACTOR = 0.002
PROFILES = {"default": {}, "paper": PAPER_IO}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def recorded_checksum(objects, key: str) -> int:
    """The CRC-32C the store recorded for ``key``: its bytes verify at
    rest, so the record is their checksum."""
    data = objects.latest_data(key)
    assert objects.verify_at_rest(key) is True, key
    return crc32c(data)


def churn_rows():
    """Every seventh order again, under the next order key."""
    orders = TpchGenerator(SCALE_FACTOR, 7).all_tables()["orders"]
    return [(row[0] + 1,) + tuple(row[1:]) for row in orders[::7]]


def load_and_append(profile: str) -> dict:
    db, store, __ = load_engine("m5ad.4xlarge", "s3", SCALE_FACTOR,
                                **PROFILES[profile])
    store.append("orders", churn_rows())
    objects = db.object_store
    txn = db.begin()
    blobs = {}
    for table in store.table_names():
        schema = store.schema(table)
        names = {"zonemap": schema.zonemap_object(),
                 "meta": schema.meta_object()}
        names.update({f"hg:{column}": schema.hg_object(column)
                      for column in schema.indexed_columns()})
        blobs[table] = {
            label: _sha(read_blob(db.buffer, db.open_for_read(txn, name)))
            for label, name in sorted(names.items())
        }
    db.commit(txn)
    return {
        "objects": {
            key: [_sha(objects.latest_data(key)),
                  recorded_checksum(objects, key)]
            for key in objects.all_keys()
        },
        "blobs": blobs,
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_load_and_append_store_golden_objects(golden, profile):
    observed = load_and_append(profile)
    want = golden[profile]
    assert observed["blobs"] == want["blobs"]
    assert sorted(observed["objects"]) == sorted(want["objects"])
    moved = [key for key, value in observed["objects"].items()
             if value != want["objects"][key]]
    assert not moved, f"{len(moved)} objects changed, first {moved[:5]}"


def test_golden_covers_every_table_and_object_kind(golden):
    for profile in PROFILES:
        blobs = golden[profile]["blobs"]
        assert len(blobs) == 8
        assert any(label.startswith("hg:")
                   for table in blobs.values() for label in table)
        assert len(golden[profile]["objects"]) > 100


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {profile: load_and_append(profile) for profile in sorted(PROFILES)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
