"""Table 5: OCM utilization during the TPC-H query pass.

Paper (m5ad.24xlarge): 962,573 misses (25.5%), 2,807,368 hits (74.5%),
962,589 evictions.  Shape: a clear hit-rate majority (~2/3-4/5) with
eviction counts of the same order as the misses.
"""

from bench_utils import emit

from repro.bench.experiments import policy_ablation_rows, table5_rows
from repro.bench.report import format_table


def test_table5_ocm_utilization(benchmark, suite):
    runs = benchmark.pedantic(suite.ocm_runs, rounds=1, iterations=1)
    run = runs["m5ad.24xlarge/ocm"]
    rows = table5_rows(run)
    emit("table5_ocm_stats",
         format_table(["", "Objects", "Percentage"], rows))
    stats = run.ocm_stats()
    hits, misses = stats["hits"], stats["misses"]
    hit_rate = hits / (hits + misses)
    # Paper: 74.5% hits, 25.5% misses.
    assert 0.55 < hit_rate < 0.95
    # Evictions of the same order of magnitude as misses.
    assert stats["evictions"] > 0
    assert stats["evictions"] < 5 * misses
    benchmark.extra_info.update(
        {"hit_rate": round(hit_rate, 3),
         "hits": int(hits), "misses": int(misses),
         "evictions": int(stats["evictions"])}
    )


def test_table5_policy_ablation_hit_ratios(benchmark, suite):
    """Table 5 companion: OCM utilization per eviction policy.

    At the default (working-set-sized) OCM capacity both policies must
    sustain a healthy hit-rate majority — the arc2q segmentation may move
    requests around, but it is not allowed to wreck utilization on the
    plain TPC-H pass.
    """
    runs = benchmark.pedantic(suite.policy_ablation, rounds=1, iterations=1)
    rows = policy_ablation_rows(runs)
    emit("table5_policy_ablation",
         format_table(
             ["policy", "hit rate", "evictions", "geomean s", "queries s"],
             rows,
         ))
    hit_rates = {}
    for name, run in runs.items():
        stats = run.ocm_stats()
        hits, misses = stats["hits"], stats["misses"]
        hit_rates[name] = hits / (hits + misses)
        assert 0.55 < hit_rates[name] < 0.95, (
            f"{name}: hit rate {hit_rates[name]:.1%} out of range"
        )
    benchmark.extra_info.update(
        {name: f"{rate:.1%}" for name, rate in hit_rates.items()}
    )
