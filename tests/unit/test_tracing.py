"""Unit tests for the tracing subsystem (spans, exporters, reports)."""

import json

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.tracing import (
    LAYERS,
    NULL_TRACER,
    Span,
    Tracer,
    TracingError,
    load_chrome_trace,
)


def make_tracer(start=0.0):
    return Tracer(VirtualClock(start))


def histogram_totals(tracer):
    """Summed histogram time per layer, from the ``layer/op`` keys."""
    totals = {}
    for key, histogram in tracer.metrics.histograms().items():
        layer = key.split("/", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + histogram.total
    return totals


class TestSpanTree:
    def test_begin_finish_nests_under_open_span(self):
        tracer = make_tracer()
        outer = tracer.begin("commit", "engine")
        tracer.clock.advance(1.0)
        inner = tracer.begin("flush", "buffer")
        tracer.clock.advance(2.0)
        tracer.finish(inner)
        tracer.finish(outer)

        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.children == []
        assert outer.duration == pytest.approx(3.0)
        assert inner.duration == pytest.approx(2.0)

    def test_record_is_leaf_with_explicit_times(self):
        tracer = make_tracer()
        parent = tracer.begin("get", "ocm")
        leaf = tracer.record("get", "store", 5.0, 7.5, key="p/1")
        tracer.finish(parent)

        assert leaf in parent.children
        assert leaf.start == 5.0 and leaf.end == 7.5
        assert leaf.duration == pytest.approx(2.5)
        assert leaf.attrs["key"] == "p/1"
        # record never alters the open-span stack: the next span is a root
        after = tracer.begin("next", "query")
        assert tracer.roots == [parent, after]

    def test_span_context_manager_sets_error_attr(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("get", "ocm") as span:
                raise RuntimeError("boom")
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None

    def test_finish_unwinds_unclosed_children(self):
        tracer = make_tracer()
        outer = tracer.begin("q", "query")
        child = tracer.begin("get", "ocm")
        grandchild = tracer.begin("get", "client")
        tracer.finish(outer)  # unwinds past child and grandchild

        after = tracer.begin("next", "query")
        assert tracer.roots == [outer, after]
        assert child.end is not None and grandchild.end is not None
        assert child.attrs["error"] == "unwound"
        assert grandchild.attrs["error"] == "unwound"

    def test_finish_unknown_span_raises(self):
        tracer = make_tracer()
        stray = Span("x", "query", 0.0)
        with pytest.raises(TracingError):
            tracer.finish(stray)

    def test_end_before_start_raises(self):
        tracer = make_tracer()
        with pytest.raises(TracingError):
            tracer.record("get", "store", 5.0, 4.0)

    def test_walk_is_depth_first(self):
        tracer = make_tracer()
        a = tracer.begin("a", "query")
        b = tracer.begin("b", "engine")
        tracer.finish(b)
        c = tracer.begin("c", "engine")
        tracer.finish(c)
        tracer.finish(a)
        assert [s.name for s in a.walk()] == ["a", "b", "c"]
        assert tracer.span_count() == 3


class TestNullTracer:
    def test_all_methods_are_noops(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("x", "query") is None
        assert NULL_TRACER.record("x", "query", 0.0, 1.0) is None
        NULL_TRACER.finish(None)
        with NULL_TRACER.span("x", "query") as span:
            assert span is None

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(VirtualClock(), enabled=False)
        assert tracer.begin("x", "query") is None
        assert tracer.record("x", "query", 0.0, 1.0) is None
        with tracer.span("x", "query") as span:
            assert span is None
        assert tracer.roots == []


class TestAggregation:
    def build(self):
        tracer = make_tracer()
        q = tracer.begin("Q1", "query")
        tracer.record("get", "store", 0.0, 2.0, cost_usd=0.001)
        tracer.record("get", "store", 2.0, 3.0, cost_usd=0.002)
        tracer.record("read", "ssd", 3.0, 3.5)
        tracer.clock.advance_to(4.0)
        tracer.finish(q)
        return tracer

    def test_histograms_observe_every_finished_span(self):
        tracer = self.build()
        hists = tracer.metrics.histograms()
        assert hists["store/get"].count == 2
        assert hists["store/get"].total == pytest.approx(3.0)
        assert hists["query/Q1"].count == 1

    def test_layer_totals_match_histogram_totals(self):
        tracer = self.build()
        spans = tracer.layer_totals()
        hists = histogram_totals(tracer)
        assert set(spans) == set(hists)
        for layer in spans:
            assert spans[layer] == pytest.approx(hists[layer])
        assert spans["store"] == pytest.approx(3.0)
        assert spans["ssd"] == pytest.approx(0.5)
        assert spans["query"] == pytest.approx(4.0)

    def test_cost_totals_roll_up_per_layer(self):
        tracer = self.build()
        assert tracer.cost_totals() == {"store": pytest.approx(0.003)}

    def test_latency_rows_shape(self):
        tracer = self.build()
        rows = tracer.latency_rows()
        assert [row[0] for row in rows] == ["query/Q1", "ssd/read", "store/get"]
        for row in rows:
            assert len(row) == len(Tracer.LATENCY_HEADERS)


class TestChromeTrace:
    def test_structure_and_round_trip(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("Q1", "query"):
            tracer.record("get", "store", 0.0, 2.0, key="p/1")
            tracer.clock.advance_to(3.0)
        payload = tracer.to_chrome_trace()

        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        # one process_name plus one thread_name per seen layer
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert len([e for e in meta if e["name"] == "thread_name"]) == 2

        store_event = next(e for e in complete if e["cat"] == "store")
        assert store_event["ts"] == pytest.approx(0.0)
        assert store_event["dur"] == pytest.approx(2e6)  # microseconds
        assert store_event["pid"] == 1
        assert store_event["tid"] == LAYERS.index("store") + 1
        assert store_event["args"]["key"] == "p/1"

        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(payload)
        )

    def test_unknown_layer_gets_fresh_tid(self):
        tracer = make_tracer()
        tracer.record("tick", "gc", 0.0, 1.0)
        events = tracer.to_chrome_trace()["traceEvents"]
        gc_event = next(e for e in events if e["ph"] == "X")
        assert gc_event["tid"] > len(LAYERS)

    def test_load_chrome_trace_aggregates(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("Q1", "query"):
            tracer.record("get", "store", 0.0, 2.0, cost_usd=0.001)
            tracer.record("get", "store", 2.0, 3.0, cost_usd=0.002)
            tracer.clock.advance_to(4.0)
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))

        report = load_chrome_trace(str(path))
        assert report["events"] == 3
        assert ["store/get", 2, pytest.approx(3.0)] in [
            [k, c, t] for k, c, t in report["rows"]
        ]
        assert report["layer_totals"]["store"] == pytest.approx(3.0)
        assert report["cost_totals"]["store"] == pytest.approx(0.003)


class TestFlameReport:
    def test_folds_identical_siblings(self):
        tracer = make_tracer()
        q = tracer.begin("Q1", "query")
        for start in (0.0, 1.0, 2.0):
            tracer.record("get", "store", start, start + 1.0)
        tracer.clock.advance_to(4.0)
        tracer.finish(q)

        report = tracer.flame_report()
        assert "Q1 [query]" in report
        assert "x3" in report
        assert "store/get" in report
        assert "75.0%" in report

    def test_min_pct_hides_noise(self):
        tracer = make_tracer()
        q = tracer.begin("Q1", "query")
        tracer.record("get", "store", 0.0, 0.0001)
        tracer.clock.advance_to(100.0)
        tracer.finish(q)
        assert "store/get" not in tracer.flame_report(min_pct=0.5)
        assert "store/get" in tracer.flame_report(min_pct=0.0)
