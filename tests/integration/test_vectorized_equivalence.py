"""The shipped query kernel against the TPC-H result golden.

``tests/data/tpch_result_golden.json`` was taken from the row-at-a-time
python kernel that the numpy kernel replaced (DESIGN.md §14): cold
22-query power runs on TPC-H at SF 0.003 and SF 0.01, each generated and
loaded at three seeds, plus one run on the paper's per-page I/O path.
The shipped kernel must reproduce every query's answer — row count and a
digest of the rows' reprs, so value types and float bits count — and
bill the same work: the same virtual seconds and GET/PUT requests, query
by query, because the kernel moves wall time only.  Also pins simulated
query time shrinking with vCPUs.

Regenerate the golden
(``python tests/integration/test_vectorized_equivalence.py``) only on an
intended change of a query's answer or cost.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.configs import (
    BENCH_PARTITIONS,
    BENCH_ROWS_PER_PAGE,
    load_engine,
    make_engine,
)
from repro.columnar import ColumnStore
from repro.columnar.exec import rows
from repro.columnar.query import QueryContext
from repro.engine import PAPER_IO
from repro.tpch import load_tpch
from repro.tpch.queries import QUERIES, run_query
from repro.tpch.runner import power_run

SCALE_FACTOR = 0.01

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "tpch_result_golden.json"
# (scale factor, seed, I/O path): the shipped path at two sizes and three
# seeds, and the paper's per-page path once.
GOLDEN_RUNS = tuple(
    (scale_factor, seed, "default")
    for scale_factor in (0.003, 0.01) for seed in (0, 1, 2)
) + ((0.003, 0, "paper_io"),)


def result_digest(rel) -> str:
    """Order-sensitive digest of a result: sha256 over each row's repr.

    The benchmark suite's digest, without its rounding to 10 significant
    digits: the repr pins every value's python type (``11`` is not
    ``11.0``) and every float bit.
    """
    sha = hashlib.sha256()
    for row in rows(rel):
        sha.update(repr(row).encode("utf-8"))
    return sha.hexdigest()[:16]


def loaded_engine(scale_factor: float, seed: int, **overrides):
    db = make_engine("m5ad.24xlarge", "s3", scale_factor, seed=seed,
                     **overrides)
    load_tpch(ColumnStore(db), scale_factor, partitions=BENCH_PARTITIONS,
              rows_per_page=BENCH_ROWS_PER_PAGE, seed=seed)
    return db


@functools.lru_cache(maxsize=None)
def golden_power_run(scale_factor: float, seed: int, io: str) -> dict:
    """A cold 22-query power run on TPC-H generated and loaded at ``seed``.

    Per query: row count, result digest, virtual seconds, and the GET and
    PUT requests it cost the object store.  Cached: every run feeds the
    answer and the cost tests.
    """
    db = loaded_engine(scale_factor, seed,
                       **(PAPER_IO if io == "paper_io" else {}))
    db.buffer.invalidate_all()
    db.ocm.drain_all()
    db.ocm.invalidate_all()
    results = {}
    for number in sorted(QUERIES):
        before = db.object_store.metrics.snapshot()
        started = db.clock.now()
        with QueryContext(db) as ctx:
            rel = run_query(ctx, number, scale_factor)
        after = db.object_store.metrics.snapshot()
        results[f"Q{number}"] = {
            "rows": len(rows(rel)),
            "digest": result_digest(rel),
            "virtual_s": db.clock.now() - started,
            **{key: int(after.get(key, 0) - before.get(key, 0))
               for key in ("get_requests", "put_requests")},
        }
    return results


def golden_key(scale_factor: float, seed: int, io: str) -> str:
    return f"sf={scale_factor}/seed={seed}/{io}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


ANSWER = ("rows", "digest")
COST = ("virtual_s", "get_requests", "put_requests")


def diverged(golden, runs, queries, fields) -> dict:
    """``{(run, query): (observed, expected)}`` over ``fields``."""
    out = {}
    for run in runs:
        key = golden_key(*run)
        observed = json.loads(json.dumps(golden_power_run(*run)))
        assert sorted(observed) == sorted(golden[key])
        for query in queries:
            got = {field: observed[query][field] for field in fields}
            want = {field: golden[key][query][field] for field in fields}
            if got != want:
                out[(key, query)] = (got, want)
    return out


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_results_identical(golden, number):
    """The query's answer in every golden run: the same rows, order,
    value types and float bits as the scalar kernel's."""
    assert not diverged(golden, GOLDEN_RUNS, [f"Q{number}"], ANSWER)


@pytest.mark.parametrize("io", ["default", "paper_io"])
def test_kernels_bill_identical_work(golden, io):
    """One CPU cost model: on either I/O path the shipped kernel bills
    the scalar kernel's virtual seconds and store requests, query by
    query."""
    runs = [run for run in GOLDEN_RUNS if run[2] == io]
    queries = [f"Q{number}" for number in sorted(QUERIES)]
    assert runs
    assert not diverged(golden, runs, queries, COST)


def test_simulated_time_shrinks_with_vcpus():
    """The Figure 7 scale-up story: more vCPUs, faster queries."""
    engine, __, ___ = load_engine("m5ad.24xlarge", "s3",
                                  scale_factor=SCALE_FACTOR)
    times = {}
    for vcpus in (1, 8, 16):
        engine.cpu.vcpus = vcpus
        per_query = power_run(engine, SCALE_FACTOR, query_numbers=[1, 3, 6])
        times[vcpus] = sum(per_query.values())
    assert times[1] > times[8] > times[16]


if __name__ == "__main__":
    # Regenerate only on an intended change of a query's answer or cost.
    golden = {golden_key(*run): golden_power_run(*run) for run in GOLDEN_RUNS}
    with GOLDEN_PATH.open("w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
