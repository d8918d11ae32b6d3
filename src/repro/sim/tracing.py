"""End-to-end request tracing on the virtual clock (observability).

The paper's Figure 6 analysis (the Q3/Q4 SSD-saturation anomaly) and the
Table 5 OCM accounting were only possible because the engine could attribute
every page read and write to a layer and a device.  This module gives the
reproduction the same attribution: a :class:`Tracer` records *spans* —
``(name, layer, start, end, attrs)`` intervals on the shared virtual clock —
propagated through the stack::

    query / engine  ->  buffer  ->  ocm / ssd  ->  client / retry  ->  store

so a single query or commit yields a span tree showing where virtual time
goes: SSD reads vs object-store requests vs retry backoff vs breaker
fail-fasts.  Spans carry per-request cost attribution (USD, from the cost
meter's price table) so dollar totals roll up the same tree.

Three consumers are served:

- **latency histograms** per ``layer/op`` (a :class:`MetricsRegistry`
  owned by the tracer; every finished span observes its duration there,
  so span-tree totals and histogram totals reconcile exactly);
- a **Chrome-trace-event exporter** (:meth:`Tracer.to_chrome_trace`):
  the JSON loads directly into ``about://tracing`` / Perfetto, with one
  track per layer;
- a **text flamegraph** (:meth:`Tracer.flame_report`): identical sibling
  spans are folded, so a 10k-span query renders as a readable profile.

Tracing is opt-in: every instrumented component defaults to the shared
:data:`NULL_TRACER`, whose methods are no-ops, and a real tracer can be
toggled with :attr:`Tracer.enabled` (e.g. to skip the bulk-load phase and
trace only the queries).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import VirtualClock
from repro.sim.metrics import MetricsRegistry

# Canonical layer ordering for exports: one Chrome-trace track per layer,
# listed top-of-stack first.
LAYERS = (
    "query", "engine", "buffer", "ocm", "ssd", "client", "retry", "store",
    "recovery", "audit",
)


class TracingError(Exception):
    """Tracer misuse (finishing a span that is not open, bad times)."""


class Span:
    """One attributed interval of virtual time.

    ``end`` may exceed the parent's ``end`` for asynchronous work (an OCM
    cache fill completes after the read that triggered it returns); the
    tree still records *causality* — who issued the work — which is what
    attribution needs.
    """

    __slots__ = ("name", "layer", "start", "end", "attrs", "children")

    def __init__(self, name: str, layer: str, start: float,
                 attrs: "Optional[Dict[str, object]]" = None) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end: "Optional[float]" = None
        self.attrs: "Dict[str, object]" = dict(attrs or {})
        self.children: "List[Span]" = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def key(self) -> str:
        return f"{self.layer}/{self.name}"

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        end = "open" if self.end is None else f"{self.end:.6f}"
        return f"Span({self.key!r}, {self.start:.6f}..{end})"


class _SpanContext:
    """``with tracer.span(...)`` sugar over begin/finish."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: "Optional[Span]") -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "Optional[Span]":
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._span is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self._span)


class NullTracer:
    """Shared no-op tracer: instrumented code calls it unconditionally."""

    enabled = False

    def begin(self, name: str, layer: str, start: "Optional[float]" = None,
              **attrs: object) -> "Optional[Span]":
        return None

    def finish(self, span: "Optional[Span]", end: "Optional[float]" = None,
               **attrs: object) -> None:
        return None

    def record(self, name: str, layer: str, start: float, end: float,
               **attrs: object) -> "Optional[Span]":
        return None

    def span(self, name: str, layer: str, **attrs: object) -> _SpanContext:
        return _NULL_CONTEXT


NULL_TRACER = NullTracer()
_NULL_CONTEXT = _SpanContext(NULL_TRACER, None)  # type: ignore[arg-type]


class Tracer:
    """Records a span tree on the virtual clock, plus latency histograms.

    Spans form a tree through an explicit open-span stack: a ``begin``
    (or ``record``) while another span is open attaches the new span as
    its child.  Timed-API layers (client, store) pass explicit start/end
    times; clock-advancing layers let ``begin``/``finish`` default to
    ``clock.now()``.

    Every finished span observes its duration in the histogram named
    ``layer/name`` in :attr:`metrics`, so per-layer time totals derived
    from the span tree and from the histograms agree to float precision.
    ``cost_usd`` attributes roll up through :meth:`cost_totals`.
    """

    def __init__(self, clock: VirtualClock, meter: "Optional[object]" = None,
                 enabled: bool = True) -> None:
        self.clock = clock
        self.meter = meter
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.roots: "List[Span]" = []
        self._stack: "List[Span]" = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def begin(self, name: str, layer: str, start: "Optional[float]" = None,
              **attrs: object) -> "Optional[Span]":
        """Open a span; subsequent spans nest under it until ``finish``."""
        if not self.enabled:
            return None
        span = Span(name, layer, self.clock.now() if start is None else start,
                    attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: "Optional[Span]", end: "Optional[float]" = None,
               **attrs: object) -> None:
        """Close a span opened by :meth:`begin` (tolerates ``None``)."""
        if span is None:
            return
        if span not in self._stack:
            raise TracingError(f"finishing {span!r} which is not open")
        # Exception paths may unwind past nested begins; close descendants
        # that never finished so the stack stays balanced.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end is None:
                self._seal(top, None, {"error": top.attrs.get("error", "unwound")})
        self._seal(span, end, attrs)

    def _seal(self, span: Span, end: "Optional[float]",
              attrs: "Dict[str, object]") -> None:
        span.end = self.clock.now() if end is None else end
        if span.end < span.start - 1e-12:
            raise TracingError(
                f"span {span.key!r} ends before it starts "
                f"({span.end!r} < {span.start!r})"
            )
        span.end = max(span.end, span.start)
        if attrs:
            span.attrs.update(attrs)
        self.metrics.histogram(span.key).observe(span.duration)

    def record(self, name: str, layer: str, start: float, end: float,
               **attrs: object) -> "Optional[Span]":
        """A leaf span with explicit times (timed APIs, async completions)."""
        if not self.enabled:
            return None
        span = Span(name, layer, start, attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._seal(span, end, {})
        return span

    def span(self, name: str, layer: str, **attrs: object) -> _SpanContext:
        """Context-manager sugar: begin on entry, finish at clock.now()."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, self.begin(name, layer, **attrs))

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    def all_spans(self):
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        return sum(1 for __ in self.all_spans())

    def layer_totals(self) -> "Dict[str, float]":
        """Summed span durations per layer (inclusive time)."""
        totals: "Dict[str, float]" = {}
        for span in self.all_spans():
            totals[span.layer] = totals.get(span.layer, 0.0) + span.duration
        return totals

    def cost_totals(self) -> "Dict[str, float]":
        """Summed ``cost_usd`` attributes per layer."""
        totals: "Dict[str, float]" = {}
        for span in self.all_spans():
            cost = span.attrs.get("cost_usd")
            if cost:
                totals[span.layer] = totals.get(span.layer, 0.0) + float(cost)
        return totals

    def latency_rows(self) -> "List[List[object]]":
        """Per-(layer, op) latency table rows for paper-style reports."""
        rows: "List[List[object]]" = []
        for key, hist in sorted(self.metrics.histograms().items()):
            rows.append([
                key,
                hist.count,
                round(hist.total, 6),
                round(hist.mean * 1e3, 3),
                round(hist.percentile(50) * 1e3, 3),
                round(hist.percentile(95) * 1e3, 3),
                round(hist.percentile(99) * 1e3, 3),
            ])
        return rows

    LATENCY_HEADERS = (
        "layer/op", "count", "total (s)", "mean (ms)", "p50 (ms)",
        "p95 (ms)", "p99 (ms)",
    )

    # ------------------------------------------------------------------ #
    # exporters
    # ------------------------------------------------------------------ #

    def to_chrome_trace(self) -> "Dict[str, object]":
        """Chrome trace-event JSON (``about://tracing`` / Perfetto).

        One complete-duration (``ph: "X"``) event per span, one track
        (``tid``) per layer, timestamps in microseconds of virtual time.
        """
        tids = {layer: index + 1 for index, layer in enumerate(LAYERS)}
        events: "List[Dict[str, object]]" = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro (virtual time)"},
            }
        ]
        seen_layers: "List[str]" = []
        for span in self.all_spans():
            if span.layer not in tids:
                tids[span.layer] = len(tids) + 1
            if span.layer not in seen_layers:
                seen_layers.append(span.layer)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tids[span.layer],
                "args": {k: v for k, v in span.attrs.items()},
            })
        for layer in seen_layers:
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[layer],
                "args": {"name": layer},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)

    def flame_report(self, max_depth: int = 6, min_pct: float = 0.5) -> str:
        """Folded text flamegraph: identical siblings merge into one line.

        Each line shows inclusive virtual seconds, the percentage of its
        root span, and how many sibling spans were folded into it.
        """
        lines: "List[str]" = []
        for root in self.roots:
            base = max(root.duration, 1e-12)
            lines.append(
                f"{root.name} [{root.layer}]  "
                f"{root.duration:.6f}s  100.0%"
            )
            self._render_folded(root.children, base, 1, max_depth, min_pct,
                                lines)
        return "\n".join(lines)

    def _render_folded(self, children: "List[Span]", base: float, depth: int,
                       max_depth: int, min_pct: float,
                       lines: "List[str]") -> None:
        if depth > max_depth or not children:
            return
        folded: "Dict[str, Tuple[float, int, List[Span]]]" = {}
        for child in children:
            total, count, grand = folded.get(child.key, (0.0, 0, []))
            folded[child.key] = (
                total + child.duration, count + 1, grand + child.children
            )
        ordered = sorted(folded.items(), key=lambda item: -item[1][0])
        for key, (total, count, grand) in ordered:
            pct = 100.0 * total / base
            if pct < min_pct:
                continue
            suffix = f"  x{count}" if count > 1 else ""
            lines.append(
                f"{'  ' * depth}{key}  {total:.6f}s  {pct:5.1f}%{suffix}"
            )
            self._render_folded(grand, base, depth + 1, max_depth, min_pct,
                                lines)


def load_chrome_trace(path: str) -> "Dict[str, object]":
    """Parse a Chrome-trace JSON and aggregate it per (layer, op).

    Returns ``{"events": n, "rows": [[layer/op, count, total_s], ...],
    "layer_totals": {...}, "cost_totals": {...}}`` — the offline half of
    ``repro report``.
    """
    with open(path) as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents", [])
    rows: "Dict[str, Tuple[int, float]]" = {}
    layer_totals: "Dict[str, float]" = {}
    cost_totals: "Dict[str, float]" = {}
    spans = 0
    for event in events:
        if event.get("ph") != "X":
            continue
        spans += 1
        layer = event.get("cat", "?")
        key = f"{layer}/{event.get('name', '?')}"
        seconds = float(event.get("dur", 0.0)) / 1e6
        count, total = rows.get(key, (0, 0.0))
        rows[key] = (count + 1, total + seconds)
        layer_totals[layer] = layer_totals.get(layer, 0.0) + seconds
        cost = event.get("args", {}).get("cost_usd")
        if cost:
            cost_totals[layer] = cost_totals.get(layer, 0.0) + float(cost)
    return {
        "events": spans,
        "rows": [
            [key, count, round(total, 6)]
            for key, (count, total) in sorted(rows.items())
        ],
        "layer_totals": layer_totals,
        "cost_totals": cost_totals,
    }
