"""Integration tests for the multi-tenant load harness (DESIGN.md §13)."""

import json
import math

import pytest

from repro.bench.load import (
    DEFAULT_TENANTS,
    LoadConfig,
    LoadHarness,
    SUMMARY_SCHEMA,
    TenantSpec,
    run_load,
)
from repro.core.autoscale import AutoscaleConfig

SMALL = dict(sessions=40, seed=0, scale_factor=0.002, arrival_rate=20.0)
# Multi-node and autoscale runs use a hotter, smaller shape so scale
# events actually fire within a few virtual seconds.
MULTI = dict(sessions=24, seed=0, scale_factor=0.001, arrival_rate=30.0,
             stages=2, admission_limit=4)
SCALED = dict(sessions=60, seed=0, scale_factor=0.001, arrival_rate=60.0,
              stages=3, admission_limit=3)


@pytest.fixture(scope="module")
def small_summary():
    return run_load(LoadConfig(**SMALL))


class TestDeterminism:
    def test_two_runs_byte_identical(self, small_summary):
        again = run_load(LoadConfig(**SMALL))
        assert (
            json.dumps(again, sort_keys=True)
            == json.dumps(small_summary, sort_keys=True)
        )

    def test_seed_changes_the_run(self, small_summary):
        other = run_load(LoadConfig(**dict(SMALL, seed=1)))
        assert (
            json.dumps(other, sort_keys=True)
            != json.dumps(small_summary, sort_keys=True)
        )

    def test_summary_is_json_serializable(self, small_summary):
        assert json.loads(json.dumps(small_summary)) == json.loads(
            json.dumps(small_summary)
        )


class TestSummarySchema:
    def test_schema_and_top_level_keys(self, small_summary):
        assert small_summary["schema"] == SUMMARY_SCHEMA
        for key in ("config", "clock_seconds", "ops", "tenants",
                    "saturation", "admission", "scheduler"):
            assert key in small_summary

    def test_every_tenant_reports_tails_and_slo(self, small_summary):
        for spec in DEFAULT_TENANTS:
            tenant = small_summary["tenants"][spec.name]
            tail = tenant["latency_seconds"]
            for key in ("mean", "p50", "p95", "p99", "max"):
                assert key in tail
            assert tail["p50"] <= tail["p95"] <= tail["p99"] <= tail["max"]
            assert tenant["slo_seconds"] == spec.slo_seconds
            if tenant["ops"]:
                assert 0.0 <= tenant["slo_attainment"] <= 1.0

    def test_saturation_curve_covers_every_stage(self, small_summary):
        stages = small_summary["saturation"]
        assert [point["stage"] for point in stages] == [1, 2, 3]
        for index, point in enumerate(stages):
            assert point["offered_sessions_per_second"] == pytest.approx(
                20.0 * (index + 1)
            )
            window = point["arrival_window_seconds"]
            assert window[0] < window[1]
        # Ramp stages abut: stage s+1 starts where stage s ended.
        for previous, current in zip(stages, stages[1:]):
            assert previous["arrival_window_seconds"][1] == pytest.approx(
                current["arrival_window_seconds"][0]
            )

    def test_all_sessions_finish_and_ops_add_up(self, small_summary):
        assert small_summary["scheduler"]["sessions"] == SMALL["sessions"]
        per_tenant_ops = sum(
            tenant["ops"] for tenant in small_summary["tenants"].values()
        )
        counted = (
            small_summary["ops"]["completed"]
            + small_summary["ops"]["failed"]
        )
        assert per_tenant_ops == counted
        assert small_summary["ops"]["failed"] == 0


class TestProfiles:
    def test_closed_loop_single_stage_all_at_zero(self):
        summary = run_load(LoadConfig(
            sessions=12, seed=0, profile="closed", scale_factor=0.002,
        ))
        assert len(summary["saturation"]) == 1
        point = summary["saturation"][0]
        assert point["sessions"] == 12
        assert point["offered_sessions_per_second"] is None
        assert point["arrival_window_seconds"] == [0.0, 0.0]

    def test_bursty_profile_runs_and_differs_from_poisson(self):
        poisson = run_load(LoadConfig(**SMALL))
        bursty = run_load(LoadConfig(**dict(SMALL, profile="bursty")))
        assert bursty["config"]["profile"] == "bursty"
        assert (
            json.dumps(bursty, sort_keys=True)
            != json.dumps(poisson, sort_keys=True)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(sessions=0)
        with pytest.raises(ValueError):
            LoadConfig(profile="warp")
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                LoadConfig(arrival_rate=rate)
        with pytest.raises(ValueError):
            LoadConfig(tenants=(
                TenantSpec("only", 0.5, "lookup", 0.1, 1, 1.0),
            ))
        with pytest.raises(ValueError):
            TenantSpec("bad", 1.0, "teleport", 0.1, 1, 1.0)


class TestAdmissionControl:
    def test_limit_queues_and_stays_fair(self):
        summary = run_load(LoadConfig(
            **dict(SMALL, sessions=30, admission_limit=2)
        ))
        admission = summary["admission"]
        assert admission is not None
        assert admission["limit"] == 2
        assert admission["waits"] > 0
        assert admission["wait_seconds"]["p95"] > 0.0
        # Fairness: with a limit this tight every tenant class queues —
        # round-robin grants keep any one class from absorbing all slots.
        waits_by_tenant = admission["waits_by_tenant"]
        queuing = [name for name, count in waits_by_tenant.items()
                   if count > 0]
        assert len(queuing) >= 2

    def test_admitted_run_completes_same_ops(self):
        free = run_load(LoadConfig(**dict(SMALL, sessions=30)))
        gated = run_load(LoadConfig(
            **dict(SMALL, sessions=30, admission_limit=2)
        ))
        assert (
            gated["ops"]["completed"] + gated["ops"]["failed"]
            == free["ops"]["completed"] + free["ops"]["failed"]
        )

    def test_no_admission_block_reports_null(self, small_summary):
        assert small_summary["admission"] is None


class TestContention:
    def test_more_sessions_do_not_speed_up_tails(self):
        """Shared Pipe/TokenBucket/CPU models are the contention story:
        a heavier arrival wave must not make p99 better than a light one
        by more than noise (it should generally make it worse)."""
        light = run_load(LoadConfig(
            sessions=10, seed=0, profile="closed", scale_factor=0.002,
        ))
        heavy = run_load(LoadConfig(
            sessions=60, seed=0, profile="closed", scale_factor=0.002,
        ))
        light_p99 = light["tenants"]["lookup"]["latency_seconds"]["p99"]
        heavy_p99 = heavy["tenants"]["lookup"]["latency_seconds"]["p99"]
        assert heavy_p99 >= light_p99

    def test_wall_time_stays_bounded(self):
        harness = LoadHarness(LoadConfig(**SMALL))
        harness.run()
        assert harness.wall_seconds < 60.0


class TestMultiNodeRouting:
    @pytest.fixture(scope="class")
    def static_two(self):
        return run_load(LoadConfig(**MULTI, nodes=2))

    def test_single_node_reports_no_routing(self, small_summary):
        assert small_summary["routing"] is None
        assert small_summary["autoscale"] is None

    def test_ops_spread_across_both_nodes(self, static_two):
        routing = static_two["routing"]
        assert set(routing) == {"coordinator", "writer-1"}
        assert all(count > 0 for count in routing.values())
        total = (static_two["ops"]["completed"]
                 + static_two["ops"]["failed"])
        assert sum(routing.values()) == total

    def test_two_runs_byte_identical(self, static_two):
        again = run_load(LoadConfig(**MULTI, nodes=2))
        assert (
            json.dumps(again, sort_keys=True)
            == json.dumps(static_two, sort_keys=True)
        )

    def test_node_count_changes_the_run(self, static_two):
        solo = run_load(LoadConfig(**MULTI))
        assert solo["config"]["nodes"] == 1
        assert static_two["config"]["nodes"] == 2
        assert solo["clock_seconds"] != static_two["clock_seconds"] or (
            json.dumps(solo, sort_keys=True)
            != json.dumps(static_two, sort_keys=True)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(nodes=0)
        with pytest.raises(ValueError):
            LoadConfig(nodes=5,
                       autoscale=AutoscaleConfig(min_nodes=1, max_nodes=4))


class TestAutoscaledRuns:
    @pytest.fixture(scope="class")
    def scaled(self):
        return run_load(LoadConfig(
            **SCALED, nodes=1,
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=3),
        ))

    def test_scale_out_fires_under_the_ramp(self, scaled):
        scale = scaled["autoscale"]
        assert scale["scale_outs"] >= 1
        outs = [e for e in scale["events"] if e["action"] == "scale_out"]
        assert outs and all(e["prewarmed_entries"] >= 0 for e in outs)

    def test_dynamic_nodes_actually_serve(self, scaled):
        routing = scaled["routing"]
        dynamic = {n: c for n, c in routing.items() if n != "coordinator"}
        assert dynamic and any(count > 0 for count in dynamic.values())
        total = scaled["ops"]["completed"] + scaled["ops"]["failed"]
        assert sum(routing.values()) == total

    def test_node_count_stays_inside_clamps(self, scaled):
        scale = scaled["autoscale"]
        counts = [count for __, count in scale["node_count_timeline"]]
        assert counts and all(1 <= count <= 3 for count in counts)
        assert 1 <= scale["final_nodes"] <= 3
        assert scale["node_seconds"] > 0.0

    def test_events_are_ordered_and_annotated(self, scaled):
        events = scaled["autoscale"]["events"]
        starts = [e["started"] for e in events]
        assert starts == sorted(starts)
        for event in events:
            assert event["completed"] >= event["started"]
            assert event["queue_depth"] >= 0
            assert event["runnable_backlog"] >= 0

    def test_two_runs_byte_identical(self, scaled):
        again = run_load(LoadConfig(
            **SCALED, nodes=1,
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=3),
        ))
        assert (
            json.dumps(again, sort_keys=True)
            == json.dumps(scaled, sort_keys=True)
        )

    def test_cold_scale_out_prewarms_nothing(self):
        cold = run_load(LoadConfig(
            **SCALED, nodes=1,
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=3,
                                      prewarm=False),
        ))
        outs = [e for e in cold["autoscale"]["events"]
                if e["action"] == "scale_out"]
        assert outs and all(e["prewarmed_entries"] == 0 for e in outs)
