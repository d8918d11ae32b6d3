"""``DatabaseConfig.paper()`` vs the engine as shipped: same data, same
answers, fewer requests.

The batched I/O path (``arc2q``, pipelined prefetch, ranged GET/PUT,
group commit) changes how many requests move the bytes and in what order
— never which bytes are stored or what a query returns.  One TPC-H load
and all 22 queries at SF 0.002 under both profiles pin that, and pin the
direction of the request counts the default exists for (their size at
bench scale is ``benchmarks/test_perf_pr5.py``'s gate).
"""

from __future__ import annotations

import pytest

from repro.bench.configs import load_engine
from repro.columnar.query import QueryContext
from repro.engine import PAPER_IO, DatabaseConfig
from repro.tpch.queries import QUERIES, run_query

SCALE_FACTOR = 0.002


class _Run:
    def __init__(self, **overrides) -> None:
        self.db, __, ___ = load_engine("m5ad.4xlarge", "s3", SCALE_FACTOR,
                                       **overrides)
        store = self.db.object_store
        self.objects = {key: store.latest_data(key)
                        for key in store.all_keys()}
        self.load_requests = store.metrics.snapshot()
        self.db.buffer.invalidate_all()
        self.db.ocm.drain_all()
        self.db.ocm.invalidate_all()
        self.answers = {}
        for number in sorted(QUERIES):
            with QueryContext(self.db) as ctx:
                relation = run_query(ctx, number, SCALE_FACTOR)
            self.answers[number] = {
                column: list(values) for column, values in relation.items()
            }
        self.requests = store.metrics.snapshot()


@pytest.fixture(scope="module")
def runs():
    return _Run(**PAPER_IO), _Run()


def test_profiles_differ_only_in_the_named_fields(runs):
    paper, default = runs
    assert paper.db.config == default.db.config.with_overrides(
        ocm_policy="lru", pipelined_prefetch=False, coalesce_max_run=1,
    )
    assert paper.db.config != default.db.config
    assert DatabaseConfig.paper() == DatabaseConfig().with_overrides(
        **PAPER_IO)
    assert DatabaseConfig.paper(ocm_policy="arc2q").ocm_policy == "arc2q"


def test_load_stores_byte_identical_objects(runs):
    paper, default = runs
    assert paper.objects == default.objects
    assert len(paper.objects) > 100


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_rows_identical(runs, number):
    paper, default = runs
    assert paper.answers[number] == default.answers[number], (
        f"Q{number} diverges between paper() and the default"
    )


def test_default_issues_fewer_requests(runs):
    paper, default = runs
    # The issue asked for 5x here; one request per column, partition and
    # commit is a floor under both profiles at this size (644 vs 255).
    assert (default.load_requests["put_requests"] * 2
            <= paper.load_requests["put_requests"])
    assert default.requests["get_requests"] < paper.requests["get_requests"]
    assert default.requests["put_bytes"] == paper.requests["put_bytes"]

