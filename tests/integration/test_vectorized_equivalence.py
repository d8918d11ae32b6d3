"""Scalar vs vectorized kernel: identical answers and identical cost.

The vectorized kernel is a wall-clock feature, not a semantics or a
cost-model feature: at SF 0.01 every TPC-H query must produce exactly
the same relation — same columns, same rows, same order, same float
bits — and bill exactly the same simulated work: the same virtual
seconds, store requests and buffer hits and misses.  Also pins
simulated query time shrinking with vCPUs.
"""

from __future__ import annotations

import pytest

from repro.columnar import vec
from repro.columnar.exec import rows
from repro.columnar.query import QueryContext
from repro.engine import PAPER_IO
from repro.tpch.queries import QUERIES, run_query
from repro.tpch.runner import power_run

pytest.importorskip("numpy")

SCALE_FACTOR = 0.01


@pytest.fixture(scope="module")
def engine():
    from repro.bench.configs import load_engine

    db, store, __ = load_engine("m5ad.24xlarge", "s3",
                                scale_factor=SCALE_FACTOR)
    return db


def _normalize(rel):
    return {column: vec.to_list(values) for column, values in rel.items()}


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_results_identical(engine, number):
    with QueryContext(engine, vectorized=False) as ctx:
        scalar = _normalize(run_query(ctx, number, SCALE_FACTOR))
    with QueryContext(engine, vectorized=True) as ctx:
        vectorized = _normalize(run_query(ctx, number, SCALE_FACTOR))
    assert set(scalar) == set(vectorized)
    for column in scalar:
        assert scalar[column] == vectorized[column], (
            f"Q{number} column {column!r} diverges"
        )


def test_rows_are_python_scalars_under_both_kernels(engine):
    """``rows`` is what result digests hash: its repr must not say numpy."""
    with QueryContext(engine, vectorized=False) as ctx:
        scalar = rows(run_query(ctx, 1, SCALE_FACTOR))
    with QueryContext(engine, vectorized=True) as ctx:
        vectorized = rows(run_query(ctx, 1, SCALE_FACTOR))
    assert repr(vectorized) == repr(scalar)


_REQUESTS = ("get_requests", "put_requests", "delete_requests",
             "head_requests")


def _power_run_cost(vectorized, overrides):
    """Per-query virtual seconds, store requests and buffer hits/misses
    of a cold 22-query power run on a freshly loaded engine."""
    from repro.bench.configs import load_engine

    db, __, ___ = load_engine("m5ad.24xlarge", "s3",
                              scale_factor=SCALE_FACTOR,
                              vectorized_executor=vectorized, **overrides)
    store_before = db.object_store.metrics.snapshot()
    buffer_before = db.buffer.stats()
    times = power_run(db, SCALE_FACTOR)
    store = db.object_store.metrics.snapshot()
    buffer = db.buffer.stats()
    return {
        "seconds": times,
        "requests": sum(store.get(k, 0) - store_before.get(k, 0)
                        for k in _REQUESTS),
        "hits": buffer.get("hits", 0) - buffer_before.get("hits", 0),
        "misses": buffer.get("misses", 0) - buffer_before.get("misses", 0),
    }


@pytest.mark.parametrize("overrides", [{}, PAPER_IO],
                         ids=["default", "paper_io"])
def test_kernels_bill_identical_work(overrides):
    """One CPU cost model: the kernel choice moves no simulated number."""
    scalar = _power_run_cost(False, overrides)
    vectorized = _power_run_cost(True, overrides)
    assert sorted(scalar["seconds"]) == sorted(QUERIES)
    for number, seconds in scalar["seconds"].items():
        assert vectorized["seconds"][number] == seconds, (
            f"Q{number}: {vectorized['seconds'][number]!r} virtual s "
            f"vectorized vs {seconds!r} scalar"
        )
    assert scalar["requests"] > 0 and scalar["misses"] > 0
    for key in ("requests", "hits", "misses"):
        assert vectorized[key] == scalar[key], key


def test_simulated_time_shrinks_with_vcpus(engine):
    """The Figure 7 scale-up story: more vCPUs, faster queries, whichever
    kernel runs them."""
    original = engine.cpu.vcpus
    try:
        times = {}
        for vcpus in (1, 8, 16):
            engine.cpu.vcpus = vcpus
            per_query = power_run(engine, SCALE_FACTOR,
                                  query_numbers=[1, 3, 6], vectorized=True)
            times[vcpus] = sum(per_query.values())
        assert times[1] > times[8] > times[16]
    finally:
        engine.cpu.vcpus = original
