"""Integration: a traced TPC-H power run yields a consistent span tree.

The acceptance bar for the tracing subsystem: the span tree of a traced
query shows the engine -> OCM -> client -> store nesting, its per-layer
virtual-time totals reconcile with the tracer's latency histograms, and
the Chrome-trace export is structurally valid.
"""

import json

import pytest

from repro.columnar import ColumnStore
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.tpch import load_tpch, power_run
from tests.conftest import make_db

SF = 0.002

pytestmark = pytest.mark.trace


@pytest.fixture(scope="module")
def traced_run():
    """Load TPC-H cold, attach a tracer, run Q1; share across tests."""
    db = make_db()
    load_tpch(ColumnStore(db), SF, partitions=2, rows_per_page=512)
    db.buffer.invalidate_all()
    db.ocm.invalidate_all()
    tracer = Tracer(db.clock, meter=db.meter)
    db.attach_tracer(tracer)
    times = power_run(db, SF, query_numbers=[1])
    return db, tracer, times


def test_attach_tracer_shares_one_tracer():
    db = make_db()
    assert db.tracer is NULL_TRACER
    tracer = Tracer(db.clock, meter=db.meter)
    db.attach_tracer(tracer)
    assert db.tracer is tracer and tracer.enabled
    assert db.buffer.tracer is tracer
    assert db.txn_manager.tracer is tracer
    assert db.object_store.tracer is tracer


def test_tracer_survives_restart_and_restore():
    """Recovery and restore rebuild the transaction manager; the new one
    keeps the database's tracer, so commits stay traced."""
    db = make_db(retention_seconds=3600.0)
    tracer = Tracer(db.clock, meter=db.meter)
    db.attach_tracer(tracer)
    db.create_object("t")

    def commit_once(page):
        txn = db.begin()
        db.write_page(txn, "t", page, b"page %d" % page)
        db.commit(txn)
        assert db.txn_manager.tracer is tracer
        return sum(1 for span in tracer.all_spans() if span.layer == "txn")

    before_crash = commit_once(0)
    snapshot = db.create_snapshot()
    db.crash()
    db.restart()
    after_restart = commit_once(1)
    assert after_restart == before_crash + 1
    db.restore_snapshot(snapshot.snapshot_id)
    assert commit_once(2) == after_restart + 1


def test_query_root_span_matches_measured_time(traced_run):
    __, tracer, times = traced_run
    roots = [s for s in tracer.roots if s.layer == "query"]
    assert [s.name for s in roots] == ["Q1"]
    assert roots[0].duration == pytest.approx(times[1])
    assert all(span.end is not None for span in tracer.all_spans())


def test_span_tree_shows_full_storage_stack(traced_run):
    __, tracer, __ = traced_run
    q1 = next(s for s in tracer.roots if s.name == "Q1")

    def has_chain(span, chain):
        if not chain:
            return True
        rest = chain[1:] if span.layer == chain[0] else chain
        if not rest:
            return True
        return any(has_chain(child, rest) for child in span.children)

    # A cold read threads the whole stack: query -> buffer -> ocm ->
    # client -> store.
    assert has_chain(q1, ["query", "buffer", "ocm", "client", "store"])
    layers = {s.layer for s in q1.walk()}
    assert {"query", "buffer", "ocm", "ssd", "client", "store"} <= layers


def test_children_start_no_earlier_than_parent(traced_run):
    __, tracer, __ = traced_run
    for span in tracer.all_spans():
        assert span.end is not None
        assert span.end >= span.start
        for child in span.children:
            assert child.start >= span.start - 1e-9


def test_layer_totals_reconcile_with_histograms(traced_run):
    __, tracer, __ = traced_run
    span_totals = tracer.layer_totals()
    hist_totals = {}
    for key, histogram in tracer.metrics.histograms().items():
        layer = key.split("/", 1)[0]
        hist_totals[layer] = hist_totals.get(layer, 0.0) + histogram.total
    assert set(span_totals) == set(hist_totals)
    for layer, total in span_totals.items():
        assert total == pytest.approx(hist_totals[layer]), layer
    # The run genuinely exercised the stack.
    assert span_totals["store"] > 0
    assert span_totals["query"] > 0


def test_store_spans_carry_request_cost(traced_run):
    db, tracer, __ = traced_run
    costs = tracer.cost_totals()
    store_spans = [s for s in tracer.all_spans() if s.layer == "store"]
    assert store_spans
    assert all("cost_usd" in s.attrs for s in store_spans)
    assert costs.get("store", 0.0) == pytest.approx(
        sum(float(s.attrs["cost_usd"]) for s in store_spans)
    )


def test_chrome_trace_export_is_structurally_valid(traced_run, tmp_path):
    __, tracer, __ = traced_run
    path = tmp_path / "q1.json"
    tracer.write_chrome_trace(str(path))
    payload = json.loads(path.read_text())

    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == tracer.span_count()
    for event in complete:
        assert event["pid"] == 1
        assert isinstance(event["tid"], int) and event["tid"] >= 1
        assert event["dur"] >= 0
        assert event["cat"]
    named_threads = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"query", "buffer", "ocm", "client", "store"} <= named_threads


def test_flame_report_renders_stack(traced_run):
    __, tracer, __ = traced_run
    report = tracer.flame_report()
    assert "Q1 [query]" in report
    assert "100.0%" in report
    assert "ocm/" in report and "store/" in report
