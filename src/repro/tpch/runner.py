"""Workload runners: loads, power runs and throughput streams.

Times are virtual seconds measured on the session's clock — deterministic
and host-independent.  The throughput run follows the paper's fourth
experiment: N pseudo-random permutations of the 22 queries, balanced
across the secondary nodes; a node executes its assigned streams and the
total time is the slowest node's (streams on one node share its CPU, so
serializing them on the node's clock preserves total work).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.query import QueryContext
from repro.columnar.schema import TableState
from repro.columnar.store import ColumnStore
from repro.sim.rng import DeterministicRng
from repro.tpch.datagen import TpchGenerator
from repro.tpch.queries import QUERIES, run_query
from repro.tpch.schema import tpch_schema

LOAD_ORDER = [
    "region", "nation", "supplier", "customer", "part", "partsupp",
    "orders", "lineitem",
]


def load_tpch(
    store: ColumnStore,
    scale_factor: float,
    partitions: int = 4,
    rows_per_page: int = 2048,
    seed: int = 7,
) -> "Dict[str, TableState]":
    """Create and bulk-load all eight TPC-H tables; returns their states."""
    schemas = tpch_schema(partitions, rows_per_page)
    generator = TpchGenerator(scale_factor, seed)
    tables = generator.all_tables()
    states: Dict[str, TableState] = {}
    for name in LOAD_ORDER:
        store.create_table(schemas[name])
    for name in LOAD_ORDER:
        states[name] = store.load(name, tables[name])
    return states


def power_run(
    session,
    scale_factor: float,
    query_numbers: "Optional[Sequence[int]]" = None,
    prefetch_window: int = 32,
) -> "Dict[int, float]":
    """Run queries sequentially; return virtual seconds per query."""
    numbers = list(query_numbers or sorted(QUERIES))
    clock = session.clock
    tracer = getattr(session, "tracer", None)
    times: Dict[int, float] = {}
    for number in numbers:
        started = clock.now()
        span = tracer.begin(f"Q{number}", "query") if tracer is not None else None
        try:
            with QueryContext(session, prefetch_window=prefetch_window) as ctx:
                run_query(ctx, number, scale_factor)
        finally:
            if tracer is not None:
                tracer.finish(span)
        times[number] = clock.now() - started
    return times


def make_streams(n_streams: int, seed: int = 42) -> "List[List[int]]":
    """Pseudo-random permutations of the 22 queries, one per stream."""
    rng = DeterministicRng(seed, "tpch-streams")
    streams: List[List[int]] = []
    for index in range(n_streams):
        stream = sorted(QUERIES)
        rng.substream(f"stream-{index}").shuffle(stream)
        streams.append(stream)
    return streams


def run_stream(session, scale_factor: float, stream: "Sequence[int]",
               prefetch_window: int = 32) -> float:
    """Execute one query stream; return its virtual duration."""
    clock = session.clock
    started = clock.now()
    for number in stream:
        with QueryContext(session, prefetch_window=prefetch_window) as ctx:
            run_query(ctx, number, scale_factor)
    return clock.now() - started


def throughput_streams(
    sessions: "Sequence[object]",
    scale_factor: float,
    n_streams: int = 8,
    seed: int = 42,
) -> "Tuple[float, List[float]]":
    """Throughput mode: balance streams across sessions.

    Each session must have its own clock (independent node timelines).
    Returns ``(total_time, per_node_times)`` where the total is the slowest
    node's elapsed time — nodes run concurrently.
    """
    if not sessions:
        raise ValueError("need at least one session")
    streams = make_streams(n_streams, seed)
    per_node = [0.0] * len(sessions)
    for index, stream in enumerate(streams):
        node = index % len(sessions)
        per_node[node] += run_stream(sessions[node], scale_factor, stream)
    return max(per_node), per_node
