"""PR 5 target workload: the TPC-H bulk load through the write pipeline.

Two environments, both loading the same data with the same seed:

- **clean store** — the sim's scaled-up per-prefix rates never bind, so
  the virtual-time column barely moves; the billed-PUT column is the
  story (adjacent-key coalescing packs runs of fresh pages into ranged
  multi-puts).
- **throttled store** — a ThrottleStorm clamps the per-prefix PUT rate
  for the whole load, the regime real S3 enforces at full scale.  Here
  the request reduction shows up as virtual load time too: every billed
  PUT costs inflated tokens, so five-fold fewer PUTs is a shorter
  critical path through the token buckets.

The optimized configuration is the engine as shipped (PUT coalescing +
group commit flush), the seed one ``DatabaseConfig.paper()``; the default
must cut billed PUTs 5x (it achieves ~82%) and measurably cut
throttled load virtual time.  Emits ``results/BENCH_pr5.json`` with load vtime, billed PUTs and
USD/load for all four runs, next to the PR 3 baseline.
"""

from bench_utils import emit, emit_json

from repro.bench.experiments import run_bulk_load_workload
from repro.bench.report import format_table

THROTTLE = 0.05


def _run_all():
    return {
        "clean_seed": run_bulk_load_workload(optimized=False),
        "clean_optimized": run_bulk_load_workload(optimized=True),
        "throttled_seed": run_bulk_load_workload(
            optimized=False, throttle_rate_factor=THROTTLE
        ),
        "throttled_optimized": run_bulk_load_workload(
            optimized=True, throttle_rate_factor=THROTTLE
        ),
    }


def test_bulk_load_write_pipeline_improvement(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    clean_seed = results["clean_seed"]
    clean_opt = results["clean_optimized"]
    thr_seed = results["throttled_seed"]
    thr_opt = results["throttled_optimized"]

    put_ratio = clean_opt["put_requests"] / clean_seed["put_requests"]
    vtime_ratio = (thr_opt["load_virtual_seconds"]
                   / thr_seed["load_virtual_seconds"])
    usd_ratio = thr_opt["load_usd"] / thr_seed["load_usd"]
    payload = {
        "workload": "bulk_load_write_pipeline",
        "throttle_rate_factor": THROTTLE,
        **results,
        "put_request_ratio": put_ratio,
        "put_request_reduction": 1 - put_ratio,
        "throttled_load_vtime_ratio": vtime_ratio,
        "throttled_load_vtime_reduction": 1 - vtime_ratio,
        "throttled_load_usd_reduction": 1 - usd_ratio,
    }
    emit_json("BENCH_pr5", payload)

    rows = []
    for metric in ("load_virtual_seconds", "put_requests",
                   "ranged_put_requests", "ranged_put_keys",
                   "throttled_requests", "batched_flush_uploads",
                   "load_usd", "wall_seconds"):
        rows.append([
            metric, clean_seed[metric], clean_opt[metric],
            thr_seed[metric], thr_opt[metric],
        ])
    emit("BENCH_pr5", format_table(
        ["metric", "clean seed", "clean optimized",
         "throttled seed", "throttled optimized"], rows,
    ))

    # PR 5 asked for >=20% fewer billed PUT requests on the bulk load;
    # the shipped path (PR 23) is held to 5x fewer (observed 0.176).
    assert put_ratio <= 0.20, (
        f"billed PUT ratio {put_ratio:.3f} exceeds 0.20 "
        f"({clean_seed['put_requests']:.0f} -> "
        f"{clean_opt['put_requests']:.0f})"
    )
    # ... and measurably lower load virtual time where the store's
    # per-prefix request rates bind (>=5% guards against noise; the
    # observed reduction is ~20%).
    assert vtime_ratio <= 0.95, (
        f"throttled load vtime ratio {vtime_ratio:.3f} exceeds 0.95 "
        f"({thr_seed['load_virtual_seconds']:.1f}s -> "
        f"{thr_opt['load_virtual_seconds']:.1f}s)"
    )
    # The clean-store load must not regress: same bytes through the same
    # pipes, so virtual time stays within 0.1% of the fixed-window drain.
    assert (clean_opt["load_virtual_seconds"]
            <= clean_seed["load_virtual_seconds"] * 1.001)
    # Cheaper at the paper's scale: request savings dominate USD/load.
    assert thr_opt["load_usd"] < thr_seed["load_usd"]
    assert clean_opt["load_usd"] < clean_seed["load_usd"]
    # Coalescing actually engaged, and only in the optimized runs.
    assert clean_opt["ranged_put_requests"] > 0
    assert clean_seed["ranged_put_requests"] == 0
    # The same pages reached the store either way (never-write-twice
    # holds and nothing was dropped).  Byte volume agrees to within a
    # sliver: GC timing shifts by a few virtual seconds between the
    # configurations, so each run may recycle a different freed key for
    # one small metadata object.
    assert abs(clean_opt["put_bytes"] - clean_seed["put_bytes"]) <= (
        clean_seed["put_bytes"] * 1e-4
    )
    benchmark.extra_info.update({
        "put_request_reduction": f"{1 - put_ratio:.1%}",
        "throttled_vtime_reduction": f"{1 - vtime_ratio:.1%}",
        "seed_usd": round(thr_seed["load_usd"], 2),
        "optimized_usd": round(thr_opt["load_usd"], 2),
    })
