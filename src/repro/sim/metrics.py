"""Lightweight metrics: counters, histograms and time series.

The benchmark harness reads these to produce the paper's tables and figures
(e.g. OCM hit/miss counts for Table 5, NIC bandwidth samples for Figure 8).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value:g})"


class Gauge:
    """A point-in-time value that can move both ways (queue depths, states)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def increment(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value:g})"


class Histogram:
    """Stores observations; offers mean/percentile summaries.

    Percentile queries keep a cached sorted copy of the observations,
    invalidated by :meth:`observe`: the load harness asks for
    p50/p95/p99 over per-request latencies after every ramp stage, and
    re-sorting the full list on each call is quadratic once thousands of
    sessions contribute observations.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted: "Optional[List[float]]" = None

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = None

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        if other._values:
            self._values.extend(other._values)
            self._sorted = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> "List[float]":
        return list(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile; ``q`` in [0, 100]."""
        if not self._values:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if self._sorted is None:
            self._sorted = sorted(self._values)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class TimeSeries:
    """(virtual-time, value) samples; supports step-function reads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Tuple[float, float]] = []

    def record(self, when: float, value: float) -> None:
        # Samples may arrive out of time order (asynchronous background
        # work is scheduled lazily); consumers sort or bucket as needed.
        self._samples.append((when, float(value)))

    @property
    def samples(self) -> "List[Tuple[float, float]]":
        return sorted(self._samples)

    def value_at(self, when: float) -> "Optional[float]":
        """Step-function read: the last recorded value at or before ``when``.

        Gauges-over-time (node counts, queue depths) are step functions;
        this answers "what was the value at time t" without the caller
        re-sorting the samples.  Returns ``None`` before the first sample.
        """
        best_when: "Optional[float]" = None
        best: "Optional[float]" = None
        for t, value in self._samples:
            if t <= when and (best_when is None or t >= best_when):
                best_when, best = t, value
        return best

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, samples={len(self._samples)})"


class MetricNameCollisionError(ValueError):
    """A metric name was registered under two different kinds.

    ``snapshot()`` flattens counters and gauges into one dict, so a gauge
    named like a counter would silently shadow it there; the registry now
    rejects the collision at registration time instead.
    """


class MetricsRegistry:
    """A named collection of metrics, one per simulated component.

    Names are unique across kinds: registering e.g. a gauge with the name
    of an existing counter raises :class:`MetricNameCollisionError` (the
    flat :meth:`snapshot` view would otherwise silently drop one of them).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._kinds: Dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise MetricNameCollisionError(
                f"metric name {name!r} is already registered as a "
                f"{existing}; cannot also register it as a {kind}"
            )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._claim(name, "counter")
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._claim(name, "gauge")
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._claim(name, "histogram")
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._claim(name, "series")
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self) -> "Iterable[Counter]":
        return self._counters.values()

    def histograms(self) -> "Dict[str, Histogram]":
        return dict(self._histograms)

    def snapshot(self) -> "Dict[str, float]":
        """Flat view of all counter and gauge values (reports and tests)."""
        out = {name: c.value for name, c in self._counters.items()}
        out.update({name: g.value for name, g in self._gauges.items()})
        return out


def labeled_histograms(registry: "MetricsRegistry",
                       base: str) -> "Dict[str, Histogram]":
    """Histograms named ``base`` or ``base:{label}``, keyed by label.

    Components that split one logical metric per region/tenant register
    ``name:{label}`` twins (e.g. the resilient client's
    ``get_latency:us-east-1``); the unlabeled original maps to ``""``.
    Reports aggregate across the whole family instead of reading only the
    unlabeled name — which silently holds nothing in replicated runs.
    """
    out: "Dict[str, Histogram]" = {}
    prefix = base + ":"
    for name, histogram in registry.histograms().items():
        if name == base:
            out[""] = histogram
        elif name.startswith(prefix):
            out[name[len(prefix):]] = histogram
    return out


def merged_histogram(registry: "MetricsRegistry", base: str) -> Histogram:
    """One histogram holding the union of a labeled family's observations."""
    merged = Histogram(base)
    for histogram in labeled_histograms(registry, base).values():
        merged.merge(histogram)
    return merged
