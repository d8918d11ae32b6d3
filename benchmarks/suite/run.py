#!/usr/bin/env python3
"""One benchmark, two clocks: run the suite's workloads and print every metric.

    python3 benchmarks/suite/run.py                      # all five workloads
    python3 benchmarks/suite/run.py --workload power_cold --repeats 5
    python3 benchmarks/suite/run.py --workload serve_mix --trace --out run.json

The driver's form, one workload per process, the result as the last line:

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

One iteration is a fresh set-up plus the timed phase.  Iterations repeat
until ``--seconds`` of measuring have passed (or ``--repeats`` are done);
wall-clock metrics are medians over them, virtual-clock metrics must be
identical in every iteration or the run fails.  With ``--trace`` the first
iteration runs untraced and the rest run with the repo's ``Tracer`` attached
and the layer entry points wrapped (``layers.py``); only per-layer metrics
are reported then, so tracing never touches an end-to-end number.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import metrics  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
MIN_ITERATIONS = 3
REQUEST_KEYS = ("get_requests", "put_requests", "delete_requests",
                "head_requests")
# Layers of the repo's Tracer -> the suite's per-layer virtual seconds.
TRACER_LAYERS = {
    "query": "columnar.query.virtual_s",
    "buffer": "core.buffer.virtual_s",
    "ocm": "core.ocm.virtual_s",
    "ssd": "blockstore.device.virtual_s",
    "client": "objectstore.client.virtual_s",
    "retry": "objectstore.client.backoff_virtual_s",
    "store": "objectstore.s3sim.virtual_s",
    "txn": "core.txn.virtual_s",
    "recovery": "core.recovery.virtual_s",
}
VIRTUAL = [m.name for m in metrics.END_TO_END if m.clock in ("virtual", "count")]


class Iteration:
    """One set-up plus one timed phase, with its checks done."""

    def __init__(self, workload, seed: int, traced: bool,
                 write_expected: bool) -> None:
        import workloads as wl
        from repro.bench.report import geomean
        from repro.sim.tracing import Tracer

        # The previous iteration's engine is cyclic garbage by now; left to
        # the collector's own timing it would overlap this one's peak.
        gc.collect()
        wrappers = layers.Wrappers().install() if traced else None
        setup_spans = wrappers.recorder if traced else None
        try:
            if traced:
                setup_spans.start()
            started = time.perf_counter()
            state = workload.setup(seed)
            self.setup_s = time.perf_counter() - started
            before = wl.read_counters(state)
            tracer = None
            if traced:
                setup_spans.stop()
                wrappers.recorder = layers.SpanRecorder()
                # The repo's Tracer keeps one open-span stack, so it cannot
                # follow interleaved sessions; serve_mix gets wall spans only.
                if workload.name != "serve_mix":
                    clock = state.databases[0].clock
                    tracer = Tracer(clock, meter=state.databases[0].meter)
                    attach_tracer(state, tracer)
                wrappers.recorder.start()
            started = time.perf_counter()
            measured = workload.run(state)
            self.wall_s = time.perf_counter() - started
            if traced:
                wrappers.recorder.stop()
        finally:
            if traced:
                wrappers.remove()
        after = wl.read_counters(state)
        self.counters = {
            key: value if key in wl.GAUGES else value - before.get(key, 0.0)
            for key, value in after.items()
        }
        self.attempted, self.failures, user_bytes = workload.check(
            state, measured, seed, write_expected)
        requests = {key: self.counters[f"objectstore.s3sim.{key}"]
                    for key in REQUEST_KEYS}
        latencies = measured.op_virtual_s
        self.virtual = {
            "virtual_s": measured.virtual_s,
            "usd": wl.usd(state, measured.virtual_s, requests),
            "billed_requests": sum(requests.values()),
            "store_bytes_per_user_byte":
                self.counters["objectstore.s3sim.stored_bytes"] / user_bytes,
            "op_geomean_virtual_s": geomean(measured.geomean_of or latencies),
            "op_p95_virtual_s": wl.nearest_rank(latencies, 95),
        }
        self.peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.layer = dict(measured.layer)
        self.skipped: "List[str]" = []
        if traced:
            self.layer.update(traced_layer_metrics(
                setup_spans, wrappers.recorder, tracer, self.wall_s))
            self.spans = {"timed phase": wrappers.recorder,
                          "set-up": setup_spans}
            self.skipped = wrappers.skipped


def attach_tracer(state, tracer) -> None:
    for db in state.databases:
        db.attach_tracer(tracer)
    for node in state.nodes:
        if node in state.databases:
            continue
        node.buffer.tracer = tracer
        node.client.tracer = tracer
        if node.ocm is not None:
            node.ocm.tracer = tracer


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_layer_metrics(setup: "layers.SpanRecorder",
                         timed: "layers.SpanRecorder", tracer,
                         wall_s: float) -> "Dict[str, float]":
    """Per-layer numbers of one traced iteration (counters come on top)."""
    out: "Dict[str, float]" = {}
    self_s = timed.layer_self_s()
    for metric in metrics.PER_LAYER:
        layer, __, leaf = metric.name.rpartition(".")
        if leaf == "wall_s":
            out[metric.name] = self_s.get(layer, 0.0)
    out["tpch.datagen.wall_s"] = setup.self_of("tpch.datagen", "")
    out["tpch.datagen.rows"] = setup.measured_of("tpch.datagen", "")
    out["columnar.encoding.encode_wall_s"] = timed.self_of(
        "columnar.encoding", "encode_values")
    out["columnar.encoding.decode_wall_s"] = timed.self_of(
        "columnar.encoding", "decode_values", "decode_values_np")
    out["columnar.encoding.encoded_bytes"] = timed.measured_of(
        "columnar.encoding", "encode_values")
    out["columnar.encoding.decoded_bytes"] = timed.measured_of(
        "columnar.encoding", "decode_values", "decode_values_np")
    out["checksum.bytes"] = timed.measured_of("checksum", "")
    out["columnar.query.rows_read"] = timed.measured_of("columnar.query", "")
    for leaf, name in (("join_wall_s", "hash_join"),
                       ("group_by_wall_s", "group_by"),
                       ("filter_wall_s", "filter_rows"),
                       ("order_by_wall_s", "order_by")):
        out[f"columnar.exec.{leaf}"] = timed.self_of("columnar.exec", name)
    out["core.ocm.pending_uploads_max"] = timed.measured_of(
        "core.ocm", "", reduce=max)
    out["core.keygen.ranges_allocated"] = timed.calls_of("core.keygen", "")
    out["core.keygen.keys_allocated"] = timed.measured_of("core.keygen", "")
    out["core.recovery.replayed_commits"] = timed.measured_of(
        "core.recovery", "recover")
    out["blockstore.freelist.to_bytes_calls"] = timed.calls_of(
        "blockstore.freelist", "to_bytes")
    out["blockstore.freelist.from_bytes_calls"] = timed.calls_of(
        "blockstore.freelist", "from_bytes")
    out["sim.sessions.runnable_backlog_max"] = timed.measured_of(
        "sim.sessions", "wait_until")
    if tracer is not None:
        totals = tracer.layer_totals()
        for layer, name in TRACER_LAYERS.items():
            out[name] = totals.get(layer, 0.0)
    out["suite.other_wall_s"] = self_s.get(layers.OTHER, 0.0)
    out["suite.spans"] = len(timed.spans) + len(setup.spans)
    # Reconciliation (i): the layers partition the traced timed phase.
    accounted = sum(self_s.values())
    if abs(accounted - wall_s) > 0.02 * wall_s:
        raise SystemExit(
            f"layer self times sum to {accounted:.4f} s but the traced timed "
            f"phase took {wall_s:.4f} s")
    return out


def derived_layer_metrics(layer: "Dict[str, float]") -> None:
    get = layer.get
    layer["columnar.query.pages_read"] = (
        get("core.buffer.hits", 0.0) + get("core.buffer.misses", 0.0))
    for cache in ("core.buffer", "core.ocm"):
        hits, misses = get(f"{cache}.hits", 0.0), get(f"{cache}.misses", 0.0)
        layer[f"{cache}.hit_ratio"] = ratio(hits, hits + misses)
    layer["core.recovery.useful_poll_ratio"] = ratio(
        get("core.recovery.restart_gc_reclaimed", 0.0),
        get("core.recovery.restart_gc_polled_keys", 0.0))


def summary(values: "List[float]") -> "Dict[str, object]":
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "n": len(values), "q1": q1, "q3": q3,
            "samples": values}


def environment() -> "Dict[str, object]":
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numpy
        numpy_version: "Optional[str]" = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def run_workload(name: str, args) -> "Dict[str, object]":
    """Iterate one workload; returns its entry of the result file."""
    import workloads as wl

    sizes = "quick" if args.quick else "full"
    workload = wl.WORKLOADS[name](wl.SIZES[sizes], sizes)
    seed = workload.input_seed(args.seed)
    iterations: "List[Iteration]" = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(iterations)
        iterations.append(Iteration(workload, seed, traced,
                                    args.write_expected and not iterations))
        done = len(iterations)
        if args.repeats:
            if done >= args.repeats + (1 if args.trace else 0):
                break
        elif (done >= (2 if args.trace else MIN_ITERATIONS)
              and time.perf_counter() - started >= args.seconds):
            break

    first = iterations[0]
    failures = [failure for it in iterations for failure in it.failures]
    for index, iteration in enumerate(iterations[1:], start=1):
        for key in VIRTUAL:
            if iteration.virtual[key] != first.virtual[key]:
                # Also reconciliation (ii) when tracing: neither a repeat
                # nor the tracer may perturb the simulation.
                failures.append(
                    f"{key} is not deterministic: iteration {index} "
                    f"{'(traced) ' if args.trace else ''}gave "
                    f"{iteration.virtual[key]!r}, iteration 0 "
                    f"{first.virtual[key]!r}")
    attempted = sum(it.attempted for it in iterations) + len(VIRTUAL)

    end_to_end: "Dict[str, object]" = {}
    per_layer: "Dict[str, object]" = {}
    if args.trace:
        traced_runs = iterations[1:]
        names = {m.name for m in metrics.PER_LAYER}
        for iteration in traced_runs:
            iteration.layer.update({
                key: value for key, value in iteration.counters.items()
                if key in names
            })
            iteration.layer["suite.trace_overhead_ratio"] = ratio(
                iteration.wall_s, first.wall_s)
            derived_layer_metrics(iteration.layer)
        for metric in metrics.PER_LAYER:
            per_layer[metric.name] = dict(
                summary([it.layer.get(metric.name, 0.0) for it in traced_runs]),
                unit=metric.unit)
        last = traced_runs[-1]
        os.makedirs(OUT_DIR, exist_ok=True)
        layers.write_chrome_trace(
            os.path.join(OUT_DIR, f"trace-{name}.json"), name, last.spans)
    else:
        wall = {
            "setup_s": [it.setup_s for it in iterations],
            "wall_s": [it.wall_s for it in iterations],
            # After one iteration in a fresh process; later iterations add
            # allocator history (126 or 136 MiB), not memory the engine needs.
            "peak_rss_mib": [first.peak_rss_mib],
        }
        for metric in metrics.END_TO_END:
            values = wall.get(metric.name) or [first.virtual[metric.name]]
            end_to_end[metric.name] = dict(
                summary(values), unit=metric.unit, clock=metric.clock)
    return {
        "seed": args.seed, "input_seed": seed, "sizes": sizes,
        "iterations": len(iterations),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "unwrapped": iterations[-1].skipped,
    }


def print_table(name: str, entry: "Dict[str, object]") -> None:
    print(f"\n== {name}  (seed {entry['seed']}, {entry['sizes']} sizes, "
          f"{entry['iterations']} iterations, {entry['attempted']} operations "
          f"and checks, {entry['failed']} failed)")
    clocks = {m.name: m.clock for m in metrics.END_TO_END}
    for section in ("end_to_end", "per_layer"):
        for metric, row in entry[section].items():
            spread = (f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, "
                      f"n={row['n']}]" if row["n"] > 1 else "")
            clock = f" ({clocks[metric]})" if metric in clocks else ""
            print(f"  {metric:<46} {row['value']:>16.6g} "
                  f"{row['unit']}{clock}{spread}")
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep iterating until this much wall time has "
                             "been measured (at least %d iterations)"
                             % MIN_ITERATIONS)
    parser.add_argument("--repeats", type=int, default=0,
                        help="run exactly this many measured iterations "
                             "instead of filling --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced iterations")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, for the suite's own tests")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/ from this run's outputs")
    args = parser.parse_args(argv)

    # Sessions hand control between threads strictly one at a time; left
    # to roam over cores, the hand-offs make wall_s bimodal (2.1 s or 3.6 s
    # on serve_mix), so the whole process stays on one CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    result = {"schema": "repro.suite/v1", "environment": environment(),
              "workloads": {}}
    for name in names:
        entry = run_workload(name, args)
        result["workloads"][name] = entry
        print_table(name, entry)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    print()
    for name in names:
        entry = result["workloads"][name]
        section = entry["per_layer"] if args.trace else entry["end_to_end"]
        print(json.dumps({
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {metric: {"value": row["value"], "unit": row["unit"]}
                        for metric, row in section.items()},
        }))
    return 0 if all(e["failed"] == 0 for e in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
