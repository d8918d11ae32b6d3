"""PR 3 target workload: churn + scan-heavy queries (Figure-6 style).

The workload interleaves append churn on a fact table with full-scan
TPC-H queries (Q1/Q6) over ``lineitem``, with the OCM sized below the
scan working set — the regime in which the paper's single-LRU cache
cycles and every round re-misses.  The optimized configuration is the
engine as shipped (``arc2q`` scan-resistant eviction, pipelined prefetch,
adjacent-key GET coalescing), the seed one ``DatabaseConfig.paper()``;
the default must win by >=20% on scan virtual time and >=30% on
object-store GET requests.

Emits ``results/BENCH_pr3.json`` with virtual seconds, wall seconds,
request counts and USD per workload for both configurations.
"""

from bench_utils import emit, emit_json

from repro.bench.experiments import run_churn_query_workload
from repro.bench.report import format_table


def _run_both():
    return {
        "seed": run_churn_query_workload(optimized=False),
        "optimized": run_churn_query_workload(optimized=True),
    }


def test_churn_query_workload_improvement(benchmark):
    results = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    seed, optimized = results["seed"], results["optimized"]

    scan_ratio = (optimized["scan_virtual_seconds"]
                  / seed["scan_virtual_seconds"])
    get_ratio = optimized["get_requests"] / seed["get_requests"]
    payload = {
        "workload": "churn_query_figure6",
        "seed": seed,
        "optimized": optimized,
        "scan_time_ratio": scan_ratio,
        "get_request_ratio": get_ratio,
        "scan_time_reduction": 1 - scan_ratio,
        "get_request_reduction": 1 - get_ratio,
    }
    emit_json("BENCH_pr3", payload)

    rows = []
    for metric in ("load_virtual_seconds", "churn_virtual_seconds",
                   "scan_virtual_seconds", "workload_virtual_seconds",
                   "get_requests", "ranged_get_requests", "put_requests",
                   "workload_usd", "wall_seconds"):
        rows.append([metric, seed[metric], optimized[metric]])
    emit("BENCH_pr3", format_table(["metric", "seed", "optimized"], rows))

    # PR 3 acceptance: >=20% lower scan virtual time, >=30% fewer GETs.
    assert scan_ratio <= 0.80, (
        f"scan virtual time ratio {scan_ratio:.3f} exceeds 0.80 "
        f"({seed['scan_virtual_seconds']:.1f}s -> "
        f"{optimized['scan_virtual_seconds']:.1f}s)"
    )
    assert get_ratio <= 0.70, (
        f"GET request ratio {get_ratio:.3f} exceeds 0.70 "
        f"({seed['get_requests']:.0f} -> {optimized['get_requests']:.0f})"
    )
    # The optimized stack must not cost more: fewer billed requests and
    # less instance time both pull the workload bill down.
    assert optimized["workload_usd"] < seed["workload_usd"]
    # Coalescing actually engaged (ranged multi-gets observed).
    assert optimized["ranged_get_requests"] > 0
    assert seed["ranged_get_requests"] == 0
    benchmark.extra_info.update({
        "scan_time_reduction": f"{1 - scan_ratio:.1%}",
        "get_request_reduction": f"{1 - get_ratio:.1%}",
        "seed_usd": round(seed["workload_usd"], 4),
        "optimized_usd": round(optimized["workload_usd"], 4),
    })
