"""PR 9 target workload: what end-to-end integrity costs.

Two questions, one emitted result:

- **verified-read overhead** — the SF 0.1 TPC-H power run with
  ``verify_reads=True`` vs the default, same instance, same seed.
  Checksum verification is pure computation on bytes the client already
  holds (no extra simulated request, no RNG draw), so the *virtual*
  time overhead must stay under 5% — in practice it is exactly zero,
  and the assertion guards against anyone accidentally attaching a
  timed charge to the verify path.
- **mean-time-to-repair vs scrub budget** — the ``repro scrub``
  scenario (seeded at-rest rot over a replicated store) swept across
  ``bytes_per_second`` budgets.  The scrubber's pacing is charged
  through the virtual clock, so a tighter budget must stretch the pass
  (>= bytes/budget seconds) while still repairing every damaged copy.

Emits ``results/BENCH_pr9.json``.
"""

from bench_utils import emit, emit_json

from repro.bench.configs import load_engine
from repro.bench.report import format_table
from repro.bench.scrub import run_scrub_scenario
from repro.tpch.runner import power_run

SCALE_FACTOR = 0.1
INSTANCE = "m5ad.24xlarge"
MAX_VERIFY_OVERHEAD = 0.05
# 8 KiB/s .. 1 MiB/s, then the 8 MiB/s default (budget=None).
SCRUB_BUDGETS = (8 * 1024, 64 * 1024, 1024 * 1024, None)


def _verified_power_run(verify):
    db, __, load_sim_seconds = load_engine(
        INSTANCE, "s3", scale_factor=SCALE_FACTOR, verify_reads=verify
    )
    sim_times = power_run(db, SCALE_FACTOR)
    client = db.object_client.metrics.snapshot()
    return {
        "load_sim_seconds": load_sim_seconds,
        "query_sim_seconds": sim_times,
        "total_sim_seconds": load_sim_seconds + sum(sim_times.values()),
        "checksum_mismatches": client.get("checksum_mismatches", 0),
    }


def _run_all():
    baseline = _verified_power_run(verify=False)
    verified = _verified_power_run(verify=True)

    mttr = {}
    for budget in SCRUB_BUDGETS:
        result = run_scrub_scenario(seed=0, regions=3, budget=budget)
        mttr[budget] = result
    return {"baseline": baseline, "verified": verified, "mttr": mttr}


def test_integrity_overhead_and_time_to_repair(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    baseline = results["baseline"]
    verified = results["verified"]
    overhead = (
        verified["total_sim_seconds"] / baseline["total_sim_seconds"] - 1.0
    )

    payload = {
        "workload": "tpch_power_run_verified_reads",
        "scale_factor": SCALE_FACTOR,
        "instance": INSTANCE,
        "baseline_sim_seconds": baseline["total_sim_seconds"],
        "verified_sim_seconds": verified["total_sim_seconds"],
        "verify_overhead_fraction": overhead,
        "per_query": {
            f"Q{q}": {
                "baseline_sim_seconds": baseline["query_sim_seconds"][q],
                "verified_sim_seconds": verified["query_sim_seconds"][q],
            }
            for q in sorted(baseline["query_sim_seconds"])
        },
        "clean_run_checksum_mismatches": verified["checksum_mismatches"],
        "time_to_repair": {
            str(budget if budget is not None else "default"): {
                "bytes_per_second": run["bytes_per_second"],
                "scrub_virtual_seconds": run["scrub_virtual_seconds"],
                "bytes_scanned": run["scrub"]["bytes_scanned"],
                "damaged": run["damaged"],
                "repaired": run["scrub"]["repaired"],
                "corrupt_after": run["corrupt_after"],
            }
            for budget, run in results["mttr"].items()
        },
    }
    emit_json("BENCH_pr9", payload)

    rows = [
        ["baseline power run (sim s)",
         f"{baseline['total_sim_seconds']:.2f}"],
        ["verified power run (sim s)",
         f"{verified['total_sim_seconds']:.2f}"],
        ["verify overhead", f"{overhead * 100:.2f}%"],
    ]
    for budget, run in results["mttr"].items():
        label = "default" if budget is None else f"{budget} B/s"
        rows.append([
            f"scrub pass @ {label} (sim s)",
            f"{run['scrub_virtual_seconds']:.2f}",
        ])
    emit("BENCH_pr9", format_table(["metric", "value"], rows))

    # PR 9 acceptance: verification is (nearly) free in virtual time on
    # a clean store, never fires a false mismatch, and the scrub budget
    # is a real pacing knob — tighter budget, longer pass, same repairs.
    assert overhead < MAX_VERIFY_OVERHEAD, (
        f"verified reads cost {overhead * 100:.1f}% virtual time "
        f"({verified['total_sim_seconds']:.1f}s vs "
        f"{baseline['total_sim_seconds']:.1f}s)"
    )
    assert verified["checksum_mismatches"] == 0, \
        "a clean run must not produce false checksum mismatches"

    passes = [results["mttr"][b] for b in SCRUB_BUDGETS]
    for run in passes:
        assert run["corrupt_after"] == 0 and run["audit_ok_after"], \
            "every budget must still repair all seeded rot"
        assert run["scrub_virtual_seconds"] >= (
            run["scrub"]["bytes_scanned"] / run["bytes_per_second"]
        ) - 1e-9
    times = [run["scrub_virtual_seconds"] for run in passes]
    assert times == sorted(times, reverse=True) and times[0] > times[-1], (
        f"time-to-repair must stretch as the budget tightens, got {times}"
    )
