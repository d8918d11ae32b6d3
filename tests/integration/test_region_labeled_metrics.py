"""End-to-end checks for per-region labeled metric families.

Since replication landed, the resilient client records GET latencies under
``get_latency:{region}`` when fronting a :class:`ReplicatedObjectStore`
and under plain ``get_latency`` otherwise.  The chaos report used to read
only the unlabeled name, silently printing p99 = 0.0 for every replicated
run; these tests pin the aggregation fix from both ends — the raw
registry and the rendered report.
"""

import pytest

from repro.bench.chaos import run_chaos_scenario
from repro.sim.metrics import labeled_histograms, merged_histogram


@pytest.fixture(scope="module")
def replicated_result():
    return run_chaos_scenario("storm", seed=0, regions=2)


@pytest.fixture(scope="module")
def single_region_result():
    return run_chaos_scenario("storm", seed=0, regions=1)


class TestReplicatedChaosReport:
    def test_p99_is_nonzero(self, replicated_result):
        assert replicated_result["p99_get_latency"] > 0.0

    def test_per_region_tails_reported(self, replicated_result):
        by_region = replicated_result["p99_get_latency_by_region"]
        assert by_region  # at least the primary served GETs
        assert "(unlabeled)" not in by_region
        for region, p99 in by_region.items():
            assert region.startswith(("us-", "eu-", "ap-", "sa-"))
            assert p99 > 0.0

    def test_aggregate_covers_per_region_tails(self, replicated_result):
        by_region = replicated_result["p99_get_latency_by_region"]
        # The union's p99 cannot exceed the largest per-family p99 and
        # must be positive whenever any family has observations.
        assert replicated_result["p99_get_latency"] <= max(
            by_region.values()
        ) + 1e-12

    def test_durability_still_holds_replicated(self, replicated_result):
        assert replicated_result["mismatches"] == 0
        assert replicated_result["commits_ok"] > 0
        assert replicated_result["regions"] == 2


class TestSingleRegionUnchanged:
    def test_p99_matches_unlabeled_histogram(self, single_region_result):
        assert single_region_result["p99_get_latency"] > 0.0
        by_region = single_region_result["p99_get_latency_by_region"]
        assert list(by_region) == ["(unlabeled)"]
        assert by_region["(unlabeled)"] == pytest.approx(
            single_region_result["p99_get_latency"]
        )


class TestAggregationAgainstRawRegistry:
    """The report's aggregate must equal the union of the labeled family
    recomputed straight from a live client registry."""

    def test_merged_equals_union_of_labels(self):
        from repro.engine import Database, DatabaseConfig
        from repro.objectstore.replicated import ReplicationConfig

        db = Database(DatabaseConfig(
            seed=3,
            buffer_capacity_bytes=8 << 20,
            ocm_capacity_bytes=32 << 20,
            page_size=16 * 1024,
            replication=ReplicationConfig(),
        ))
        db.create_object("t")
        txn = db.begin()
        for page in range(8):
            db.write_page(txn, "t", page, b"payload-%d" % page)
        db.commit(txn)
        db.buffer.invalidate_all()
        if db.ocm is not None:
            db.ocm.drain_all()
            db.ocm.invalidate_all()
        reader = db.begin()
        for page in range(8):
            db.read_page(reader, "t", page)
        db.commit(reader)

        registry = db.object_client.metrics
        family = labeled_histograms(registry, "get_latency")
        labeled = {label: h for label, h in family.items() if label}
        assert labeled, "replicated client must label its GET histograms"
        all_values = sorted(
            value
            for histogram in family.values()
            for value in histogram.values
        )
        merged = merged_histogram(registry, "get_latency")
        assert sorted(merged.values) == all_values
        assert merged.count == len(all_values) > 0
        assert merged.percentile(99.0) > 0.0
        # The unlabeled name alone misses every replicated observation —
        # the original bug this PR fixes.
        assert registry.histogram("get_latency").count == 0
