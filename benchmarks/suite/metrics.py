"""The suite's metric catalogue: names, units, clocks, directions, predictions.

``BENCHMARK.json`` at the repo root carries the same names (and the bounds);
``test_suite.py`` checks the two agree.  Clocks: ``virtual`` is the engine's
``VirtualClock`` (deterministic for a seed), ``wall`` is ``perf_counter``,
``host`` is a property of the Python process, ``count`` is a counter of the
simulation (deterministic for a seed).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: "Dict[str, str]" = {
    "bulk_load": "TPC-H bulk load on S3 with the OCM: the write path (encode, "
                 "checksum, flush, write-back, PUT, commit) does all the work",
    "power_cold": "22-query power run from cold caches, OCM smaller than the "
                  "data: query/exec CPU first, compulsory-miss reads second",
    "churn_scan": "appends beside Q1/Q6 re-scans with the OCM at 60% of the "
                  "scan footprint: re-reference under eviction pressure",
    "serve_mix": "open-loop Poisson sessions (lookups 0.8, churn 0.2) at four "
                 "fixed rates on one node: queueing and session hand-off",
    "crash_recover": "writers commit, leave orphans, crash and restart; the "
                     "coordinator recovers: restart GC and checkpoint/freelist "
                     "work, plus the durability check",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    clock: str
    meaning: str


END_TO_END: "List[EndToEnd]" = [
    EndToEnd("setup_s", "s", "lower", "wall",
             "median wall seconds of one set-up (inputs generated, engine "
             "built and loaded)"),
    EndToEnd("wall_s", "s", "lower", "wall",
             "median wall seconds of the timed phase, tracing off"),
    EndToEnd("peak_rss_mib", "MiB", "lower", "host",
             "peak resident set of the fresh benchmark process after its "
             "first iteration"),
    EndToEnd("virtual_s", "s", "lower", "virtual",
             "simulated seconds of the timed phase (serve_mix: operations x "
             "their typical in-engine latency, below the top rate)"),
    EndToEnd("usd", "USD", "lower", "virtual",
             "instance rate x nodes x virtual_s/3600 plus the S3 price of the "
             "phase's request counts, extrapolated by 1000/SF"),
    EndToEnd("billed_requests", "count", "lower", "count",
             "GET+PUT+DELETE+HEAD requests issued to the store in the phase"),
    EndToEnd("store_bytes_per_user_byte", "ratio", "lower", "count",
             "bytes at rest on the store / raw user bytes (8 B per number, "
             "UTF-8 length per string, payload length per page)"),
    EndToEnd("op_geomean_virtual_s", "s", "lower", "virtual",
             "geometric mean of the virtual latency of the workload's "
             "operations (table load, query, round step, session op, recovery)"),
    EndToEnd("op_p95_virtual_s", "s", "lower", "virtual",
             "95th percentile (nearest rank) of the same latencies"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: "Tuple[str, str]"  # (end-to-end metric, workload) it should move


def _layer(prefix: str, moves: "Tuple[str, str]",
           *metrics: "Tuple[str, str, str]") -> "List[PerLayer]":
    return [PerLayer(f"{prefix}.{name}", unit, better, moves)
            for name, unit, better in metrics]


SERVE_RATES = (1, 2, 4, 8)  # sessions per virtual second

# The last column of the README's prediction table, written down before
# measuring: the end-to-end metric a layer should move and the workload
# where it should; on the other workloads the prediction is no change.
PER_LAYER: "List[PerLayer]" = (
    _layer("tpch.datagen", ("setup_s", "bulk_load"),
           ("wall_s", "s", "lower"), ("rows", "count", "higher"))
    + _layer("tpch.queries", ("wall_s", "power_cold"),
             ("wall_s", "s", "lower"))
    + _layer("columnar.store", ("wall_s", "bulk_load"),
             ("wall_s", "s", "lower"), ("rows_loaded", "count", "higher"),
             ("pages_written", "count", "lower"))
    + _layer("columnar.encoding", ("wall_s", "bulk_load"),
             ("encode_wall_s", "s", "lower"), ("decode_wall_s", "s", "lower"),
             ("encoded_bytes", "bytes", "lower"),
             ("decoded_bytes", "bytes", "lower"))
    + _layer("checksum", ("wall_s", "bulk_load"),
             ("wall_s", "s", "lower"), ("bytes", "bytes", "lower"))
    + _layer("columnar.query", ("wall_s", "power_cold"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("rows_read", "count", "lower"), ("pages_read", "count", "lower"))
    + _layer("columnar.exec", ("wall_s", "power_cold"),
             ("wall_s", "s", "lower"), ("join_wall_s", "s", "lower"),
             ("group_by_wall_s", "s", "lower"), ("filter_wall_s", "s", "lower"),
             ("order_by_wall_s", "s", "lower"))
    + _layer("sim.cpu", ("op_geomean_virtual_s", "power_cold"),
             ("charged_ops", "count", "lower"), ("virtual_s", "s", "lower"))
    + _layer("core.buffer", ("virtual_s", "churn_scan"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("hits", "count", "higher"), ("misses", "count", "lower"),
             ("hit_ratio", "ratio", "higher"), ("evictions", "count", "lower"),
             ("dirty_flushes", "count", "lower"),
             ("prefetched", "count", "higher"))
    + _layer("core.ocm", ("billed_requests", "churn_scan"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("hits", "count", "higher"), ("misses", "count", "lower"),
             ("hit_ratio", "ratio", "higher"), ("evictions", "count", "lower"),
             ("write_back", "count", "higher"),
             ("write_through", "count", "lower"),
             ("flush_for_commit_jobs", "count", "lower"),
             ("pending_uploads_max", "count", "lower"))
    + _layer("blockstore.device", ("virtual_s", "churn_scan"),
             ("virtual_s", "s", "lower"), ("read_ops", "count", "lower"),
             ("write_ops", "count", "lower"), ("read_bytes", "bytes", "lower"),
             ("write_bytes", "bytes", "lower"))
    + _layer("objectstore.client", ("virtual_s", "bulk_load"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("put_retries", "count", "lower"), ("get_misses", "count", "lower"),
             ("backoff_virtual_s", "s", "lower"),
             ("coalesced_get_keys", "count", "higher"),
             ("coalesced_put_keys", "count", "higher"))
    + _layer("objectstore.s3sim", ("billed_requests", "bulk_load"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("get_requests", "count", "lower"),
             ("put_requests", "count", "lower"),
             ("delete_requests", "count", "lower"),
             ("head_requests", "count", "lower"),
             ("get_bytes", "bytes", "lower"), ("put_bytes", "bytes", "lower"),
             ("throttled_requests", "count", "lower"),
             ("delayed_visibility_puts", "count", "lower"),
             ("stored_bytes", "bytes", "lower"),
             ("object_count", "count", "lower"))
    + _layer("core.txn", ("store_bytes_per_user_byte", "churn_scan"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("commits", "count", "higher"), ("rollbacks", "count", "lower"),
             ("gc_pages_deleted", "count", "higher"),
             ("gc_entries_collected", "count", "higher"))
    + _layer("core.keygen", ("op_geomean_virtual_s", "crash_recover"),
             ("wall_s", "s", "lower"), ("ranges_allocated", "count", "lower"),
             ("keys_allocated", "count", "lower"),
             ("active_set_keys_max", "count", "lower"))
    + _layer("core.recovery", ("op_geomean_virtual_s", "crash_recover"),
             ("wall_s", "s", "lower"), ("virtual_s", "s", "lower"),
             ("recovery_virtual_s", "s", "lower"),
             ("replayed_commits", "count", "lower"),
             ("restart_gc_polled_keys", "count", "lower"),
             ("restart_gc_reclaimed", "count", "higher"),
             ("useful_poll_ratio", "ratio", "higher"))
    + _layer("blockstore.freelist", ("wall_s", "crash_recover"),
             ("wall_s", "s", "lower"), ("to_bytes_calls", "count", "lower"),
             ("from_bytes_calls", "count", "lower"))
    + _layer("sim.sessions", ("wall_s", "serve_mix"),
             ("wall_s", "s", "lower"), ("handoffs", "count", "lower"),
             ("sessions", "count", "higher"),
             ("runnable_backlog_max", "count", "lower"))
    + _layer("bench.load", ("op_p95_virtual_s", "serve_mix"),
             ("wall_s", "s", "lower"),
             ("lookup_p50_virtual_s", "s", "lower"),
             ("lookup_p99_virtual_s", "s", "lower"),
             ("churn_p50_virtual_s", "s", "lower"),
             ("churn_p95_virtual_s", "s", "lower"),
             ("slo_attainment", "ratio", "higher"),
             ("max_rate_within_slo", "1/s", "higher"),
             *[(f"lookup_slo_attainment.r{rate}", "ratio", "higher")
               for rate in SERVE_RATES],
             *[(f"drain_over_window_ratio.r{rate}", "ratio", "lower")
               for rate in SERVE_RATES])
    + _layer("suite", ("wall_s", "power_cold"),
             ("trace_overhead_ratio", "ratio", "lower"),
             ("other_wall_s", "s", "lower"), ("spans", "count", "lower"))
)
