"""Unit tests for counters, histograms and time series."""

import pytest

from repro.sim.metrics import (
    Counter,
    Histogram,
    MetricNameCollisionError,
    MetricsRegistry,
    TimeSeries,
    labeled_histograms,
    merged_histogram,
)


class TestCounter:
    def test_increment(self):
        counter = Counter("x")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)


class TestHistogram:
    def test_mean(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.mean == pytest.approx(2.0)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)

    def test_empty_summaries_are_zero(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds_checked(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_sorted_cache_invalidated_by_observe(self):
        """Regression: percentile caches the sorted values; interleaving
        observe and percentile must keep answers correct, not stale."""
        hist = Histogram("h")
        hist.observe(10.0)
        hist.observe(30.0)
        assert hist.percentile(100) == 30.0
        hist.observe(50.0)  # arrives after the cache was built
        assert hist.percentile(100) == 50.0
        assert hist.percentile(0) == 10.0
        hist.observe(1.0)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == pytest.approx(20.0)

    def test_sorted_cache_matches_fresh_sort(self):
        hist = Histogram("h")
        for value in (5.0, 1.0, 9.0, 3.0):
            hist.observe(value)
        first = [hist.percentile(q) for q in (0, 25, 50, 75, 100)]
        # A second pass hits the cache; answers must be identical.
        assert [hist.percentile(q) for q in (0, 25, 50, 75, 100)] == first
        assert hist.values == [5.0, 1.0, 9.0, 3.0]  # insertion order kept

    def test_merge_combines_and_invalidates(self):
        left = Histogram("a")
        right = Histogram("b")
        left.observe(1.0)
        assert left.percentile(100) == 1.0  # build the cache
        right.observe(7.0)
        left.merge(right)
        assert left.count == 2
        assert left.percentile(100) == 7.0


class TestLabeledFamilies:
    """Aggregation across `base` / `base:{label}` histogram families
    (the per-region twins the resilient client registers)."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.histogram("get_latency").observe(0.010)
        registry.histogram("get_latency:us-east-1").observe(0.020)
        registry.histogram("get_latency:us-east-1").observe(0.040)
        registry.histogram("get_latency:us-west-2").observe(0.080)
        registry.histogram("get_latency_other").observe(9.0)  # not family
        return registry

    def test_labeled_histograms_keys(self):
        family = labeled_histograms(self._registry(), "get_latency")
        assert sorted(family) == ["", "us-east-1", "us-west-2"]
        assert family["us-east-1"].count == 2

    def test_merged_histogram_is_union(self):
        merged = merged_histogram(self._registry(), "get_latency")
        assert merged.count == 4
        assert merged.percentile(100) == pytest.approx(0.080)
        assert merged.percentile(0) == pytest.approx(0.010)

    def test_merged_histogram_empty_family(self):
        merged = merged_histogram(MetricsRegistry(), "get_latency")
        assert merged.count == 0
        assert merged.percentile(99) == 0.0


class TestTimeSeries:
    def test_out_of_order_samples_allowed(self):
        series = TimeSeries("s")
        series.record(5.0, 1)
        series.record(1.0, 2)
        assert series.samples == [(1.0, 2.0), (5.0, 1.0)]


class TestRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.series("s") is registry.series("s")

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").increment(2)
        registry.counter("b").increment(3)
        assert registry.snapshot() == {"a": 2, "b": 3}


class TestMetricNameCollisions:
    """Regression: snapshot() flat-merges counters and gauges, so a name
    registered under two kinds would silently overwrite one of them.
    Collisions now fail loudly at registration time."""

    def test_counter_then_gauge_raises(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        with pytest.raises(MetricNameCollisionError):
            registry.gauge("requests")

    def test_every_cross_kind_pair_raises(self):
        kinds = ["counter", "gauge", "histogram", "series"]
        for first in kinds:
            for second in kinds:
                if first == second:
                    continue
                registry = MetricsRegistry()
                getattr(registry, first)("shared-name")
                with pytest.raises(MetricNameCollisionError):
                    getattr(registry, second)("shared-name")

    def test_same_kind_reregistration_returns_same_object(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        assert registry.counter("requests") is counter
        gauge = registry.gauge("depth")
        assert registry.gauge("depth") is gauge
        hist = registry.histogram("latency")
        assert registry.histogram("latency") is hist
        series = registry.series("throughput")
        assert registry.series("throughput") is series

    def test_collision_error_is_a_value_error(self):
        registry = MetricsRegistry()
        registry.histogram("x")
        with pytest.raises(ValueError):
            registry.counter("x")
