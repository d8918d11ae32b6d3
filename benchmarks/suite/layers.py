"""Wall-clock spans around the public entry points of every layer.

The traced pass of the suite measures each layer *from outside*: the
functions named in :data:`ENTRY_POINTS` are wrapped for the duration of one
pass and restored afterwards.  A wrapper records one span per call (name,
layer, start, end, parent, thread) and charges wall time *exclusively*: at
every span boundary the time since the previous boundary goes to the span
that was running, so a layer's self time is its spans minus their children
and the self times of all layers plus ``suite.other`` add up to the root.

Sessions of the ``SessionScheduler`` run on their own threads, strictly one
at a time.  A parked session (``wait_until``/``suspend``) opens a
``sim.sessions`` span; the hand-off until the next session resumes is
charged there, so interleaved sessions still partition the wall clock.

An entry point that no longer exists is skipped, so deleting a method from
``src/`` moves the numbers without breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

OTHER = "suite.other"
SESSIONS = "sim.sessions"


# Measures: ("sum" | "max", fn(args, result) -> number).  ``args`` are the
# call's positional arguments, ``self`` included for methods.  The number is
# the unit of work a layer reports beside its time (rows, bytes, depth).
_RESULT_LEN = ("sum", lambda args, result: len(result))
_PAYLOAD_LEN = ("sum", lambda args, result: len(args[0]))
_DATAGEN_ROWS = ("sum", lambda args, result: sum(map(len, result.values())))
_RELATION_ROWS = ("sum", lambda args, result: max(
    (len(column) for column in result.values()), default=0))
_PENDING_UPLOADS = ("max", lambda args, result: args[0].pending_upload_count())
_RANGE_KEYS = ("sum", lambda args, result: result.count)
_REPLAYED = ("sum", lambda args, result: result.replayed_commits)
_BACKLOG = ("max", lambda args, result: args[0].runnable_backlog())

# (layer, "module:Owner.attr" or "module:function", measure or None)
ENTRY_POINTS: "List[Tuple[str, str, Optional[tuple]]]" = [
    ("tpch.datagen", "repro.tpch.datagen:TpchGenerator.all_tables", _DATAGEN_ROWS),
    ("tpch.queries", "repro.tpch.queries:run_query", None),
    ("columnar.store", "repro.columnar.store:ColumnStore.create_table", None),
    ("columnar.store", "repro.columnar.store:ColumnStore.load", None),
    ("columnar.store", "repro.columnar.store:ColumnStore.append", None),
    ("columnar.encoding", "repro.columnar.encoding:encode_values", _RESULT_LEN),
    ("columnar.encoding", "repro.columnar.encoding:decode_values", _PAYLOAD_LEN),
    ("columnar.encoding", "repro.columnar.encoding:decode_values_np", _PAYLOAD_LEN),
    ("checksum", "repro.checksum:crc32c", _PAYLOAD_LEN),
    ("columnar.query", "repro.columnar.query:QueryContext.read", _RELATION_ROWS),
    ("columnar.query", "repro.columnar.query:QueryContext.read_rows", _RELATION_ROWS),
    ("columnar.exec", "repro.columnar.exec:hash_join", None),
    ("columnar.exec", "repro.columnar.exec:group_by", None),
    ("columnar.exec", "repro.columnar.exec:filter_rows", None),
    ("columnar.exec", "repro.columnar.exec:order_by", None),
    ("columnar.exec", "repro.columnar.exec:extend", None),
    ("columnar.exec", "repro.columnar.exec:distinct", None),
    ("core.buffer", "repro.core.buffer:BufferManager.get_page", None),
    ("core.buffer", "repro.core.buffer:BufferManager.write_page", None),
    ("core.buffer", "repro.core.buffer:BufferManager.prefetch", None),
    ("core.buffer", "repro.core.buffer:BufferManager.flush_txn", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.get", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.get_many", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.get_many_at", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.put", _PENDING_UPLOADS),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.put_many", _PENDING_UPLOADS),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.delete", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.delete_many", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.flush_for_commit", None),
    ("core.ocm", "repro.core.ocm:ObjectCacheManager.drain_all", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.get_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.get_many_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.put_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.put_many_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.put_batch_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.delete_at", None),
    ("objectstore.client", "repro.objectstore.client:RetryingObjectClient.exists_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.put_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.put_range_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.try_get_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.try_get_verified_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.get_range_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.get_range_verified_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.delete_at", None),
    ("objectstore.s3sim", "repro.objectstore.s3sim:SimulatedObjectStore.exists_at", None),
    ("core.txn", "repro.core.txn:TransactionManager.begin", None),
    ("core.txn", "repro.core.txn:TransactionManager.commit", None),
    ("core.txn", "repro.core.txn:TransactionManager.rollback", None),
    ("core.txn", "repro.core.txn:TransactionManager.collect_garbage", None),
    ("core.keygen", "repro.core.keygen:ObjectKeyGenerator.allocate_range", _RANGE_KEYS),
    ("core.recovery", "repro.engine:Database.restart", None),
    ("core.recovery", "repro.engine:Database.checkpoint", None),
    ("core.recovery", "repro.core.multiplex:Multiplex.restart_gc", None),
    ("core.recovery", "repro.core.recovery:recover", _REPLAYED),
    ("blockstore.freelist", "repro.blockstore.freelist:Freelist.to_bytes", None),
    ("blockstore.freelist", "repro.blockstore.freelist:Freelist.from_bytes", None),
    ("bench.load", "repro.bench.load:LoadHarness.run", None),
    (SESSIONS, "repro.sim.sessions:SessionScheduler.run", None),
    (SESSIONS, "repro.sim.sessions:SessionScheduler.wait_until", _BACKLOG),
    (SESSIONS, "repro.sim.sessions:SessionScheduler.suspend", None),
]

# A session body is harness code until it calls into the engine.
SESSION_BODY_LAYER = "bench.load"


class SpanRecorder:
    """In-memory spans plus exclusive wall time per (layer, name)."""

    def __init__(self) -> None:
        # [name, layer, start, end, parent index or -1, thread index]
        self.spans: "List[list]" = []
        self.self_s: "Dict[Tuple[str, str], float]" = defaultdict(float)
        self.calls: "Dict[Tuple[str, str], int]" = defaultdict(int)
        self.measured: "Dict[Tuple[str, str], float]" = defaultdict(float)
        self._stacks: "Dict[int, List[int]]" = {}
        self._thread_index: "Dict[int, int]" = {}
        self._main = threading.get_ident()
        self._running = (OTHER, "root")
        self._last = 0.0
        self.started = 0.0
        self.ended = 0.0

    # -- exclusive charging --------------------------------------------- #

    def _charge(self, now: float) -> None:
        self.self_s[self._running] += now - self._last
        self._last = now

    def start(self) -> None:
        self.started = self._last = time.perf_counter()

    def stop(self) -> None:
        self.ended = time.perf_counter()
        self._charge(self.ended)

    def enter(self, name: str, layer: str) -> None:
        now = time.perf_counter()
        self._charge(now)
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
            self._thread_index[ident] = len(self._thread_index)
        parent = stack[-1] if stack else -1
        stack.append(len(self.spans))
        self.spans.append(
            [name, layer, now, now, parent, self._thread_index[ident]]
        )
        self._running = (layer, name)
        self.calls[self._running] += 1

    def exit(self) -> None:
        now = time.perf_counter()
        self._charge(now)
        ident = threading.get_ident()
        stack = self._stacks[ident]
        self.spans[stack.pop()][3] = now
        if stack:
            span = self.spans[stack[-1]]
            self._running = (span[1], span[0])
        elif ident == self._main:
            self._running = (OTHER, "root")
        else:
            # A finished session hands control back to the scheduler.
            self._running = (SESSIONS, "handoff")

    def measure(self, key: "Tuple[str, str]", mode: str, value: float) -> None:
        if mode == "max":
            self.measured[key] = max(self.measured[key], value)
        else:
            self.measured[key] += value

    # -- aggregation ----------------------------------------------------- #

    def wall_s(self) -> float:
        return self.ended - self.started

    def layer_self_s(self) -> "Dict[str, float]":
        totals: "Dict[str, float]" = defaultdict(float)
        for (layer, __), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(totals)

    def _sum(self, table: dict, layer: str, suffixes: "Tuple[str, ...]",
             reduce: Callable = sum) -> float:
        return reduce([
            value for (span_layer, name), value in table.items()
            if span_layer == layer and name.endswith(suffixes)
        ] or [0])

    def self_of(self, layer: str, *suffixes: str) -> float:
        """Self seconds of the layer's spans whose name ends in a suffix."""
        return self._sum(self.self_s, layer, suffixes)

    def calls_of(self, layer: str, *suffixes: str) -> int:
        return int(self._sum(self.calls, layer, suffixes))

    def measured_of(self, layer: str, *suffixes: str,
                    reduce: Callable = sum) -> float:
        return self._sum(self.measured, layer, suffixes, reduce)

    def chrome_events(self, pid: int, label: str) -> "List[dict]":
        """Chrome trace events: one track per thread, wall microseconds."""
        events: "List[dict]" = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        }]
        origin = self.started
        for index, (name, layer, start, end, parent, thread) in enumerate(
            self.spans
        ):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": thread,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": index, "parent": parent},
            })
        return events


def write_chrome_trace(path: str, workload: str,
                       phases: "Dict[str, SpanRecorder]") -> None:
    events: "List[dict]" = []
    for pid, (phase, recorder) in enumerate(phases.items(), start=1):
        events.extend(recorder.chrome_events(
            pid, f"benchmarks/suite {workload}: {phase} (wall time)"
        ))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Wrappers:
    """The wrappers of one traced pass; ``remove()`` restores the originals.

    Spans go to :attr:`recorder`, which the caller swaps between the
    set-up and the timed phase.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.skipped: "List[str]" = []
        self._undo: "List[Tuple[object, str, object]]" = []

    def _wrap(self, fn: Callable, name: str, layer: str,
              measure: "Optional[tuple]" = None) -> Callable:
        key = (layer, name)

        def wrapper(*args, **kwargs):
            recorder = self.recorder
            recorder.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if measure is not None:
                recorder.measure(key, measure[0], measure[1](args, result))
            return result

        return wrapper

    def _set(self, owner: object, attr: str, new: object, old: object) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self) -> "Wrappers":
        # Load every module first: a function is patched in each loaded
        # module that imported it by name.
        modules = {}
        for __, target, __ in ENTRY_POINTS:
            module_name = target.partition(":")[0]
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        for layer, target, measure in ENTRY_POINTS:
            module_name, __, path = target.partition(":")
            owner_name, __, attr = path.rpartition(".")
            module = modules[module_name]
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.skipped.append(target)
            elif not owner_name:
                self._install_function(raw, attr, layer, measure)
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(
                    self._wrap(raw.__func__, path, layer, measure)), raw)
            else:
                self._set(owner, attr,
                          self._wrap(raw, path, layer, measure), raw)
        self._install_session_bodies()
        return self

    def _install_function(self, raw, attr, layer, measure) -> None:
        """Patch a module function in every module that imported it by name."""
        wrapped = self._wrap(raw, attr, layer, measure)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is raw:
                self._set(module, attr, wrapped, raw)

    def _install_session_bodies(self) -> None:
        """Give every session body a span, so its thread's time has an owner."""
        scheduler = importlib.import_module("repro.sim.sessions").SessionScheduler
        spawn = vars(scheduler).get("spawn")
        if spawn is None:
            self.skipped.append("repro.sim.sessions:SessionScheduler.spawn")
            return
        wrap = self._wrap

        def wrapper(self, fn, **kwargs):
            return spawn(self, wrap(fn, "session", SESSION_BODY_LAYER), **kwargs)

        self._set(scheduler, "spawn", wrapper, spawn)

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
