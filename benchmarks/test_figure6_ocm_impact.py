"""Figure 6: impact of the OCM on query execution times.

Paper: enabling the OCM improves the query geomean by 25.8% on
m5ad.4xlarge and 25.6% on m5ad.24xlarge; the first queries run on a cold
cache and see little or no benefit (warm-up), with later queries improving
steadily.  (The paper also reports a Q3/Q4 *regression* on m5ad.24xlarge
caused by SSD saturation from asynchronous cache fills; our batched
simulation reproduces the saturation mechanism but not the sign flip —
see EXPERIMENTS.md.)
"""

from bench_utils import emit

from repro.bench.report import format_table, geomean


def test_figure6_ocm_query_impact(benchmark, suite):
    runs = benchmark.pedantic(suite.ocm_runs, rounds=1, iterations=1)
    headers = ["query", "4xl OCM", "4xl no-OCM", "24xl OCM", "24xl no-OCM"]
    rows = []
    for q in range(1, 23):
        rows.append(
            [
                f"Q{q}",
                runs["m5ad.4xlarge/ocm"].query_times[q],
                runs["m5ad.4xlarge/noocm"].query_times[q],
                runs["m5ad.24xlarge/ocm"].query_times[q],
                runs["m5ad.24xlarge/noocm"].query_times[q],
            ]
        )
    emit("figure6_ocm_impact", format_table(headers, rows))

    gains = {}
    for instance in ("m5ad.4xlarge", "m5ad.24xlarge"):
        with_ocm = geomean(runs[f"{instance}/ocm"].query_times.values())
        without = geomean(runs[f"{instance}/noocm"].query_times.values())
        gains[instance] = 1 - with_ocm / without
        # Paper: ~25% geomean improvement on both instances.
        assert 0.10 < gains[instance] < 0.45, (
            f"{instance}: OCM gain {gains[instance]:.1%} out of range"
        )
    # Warm-up: the first queries (cold cache) benefit much less than the
    # rest of the run.
    for instance in ("m5ad.4xlarge", "m5ad.24xlarge"):
        ocm = runs[f"{instance}/ocm"].query_times
        no = runs[f"{instance}/noocm"].query_times
        early = geomean([ocm[q] for q in (1, 2)]) / geomean(
            [no[q] for q in (1, 2)]
        )
        late = geomean([ocm[q] for q in range(12, 23)]) / geomean(
            [no[q] for q in range(12, 23)]
        )
        assert early > late, f"{instance}: no warm-up effect"
        assert early > 0.9  # cold first queries: little or no benefit
    benchmark.extra_info.update(
        {instance: f"{gain:.1%}" for instance, gain in gains.items()}
    )


def test_figure6_policy_ablation_scan_latencies(benchmark, suite):
    """Figure 6 companion: per-query scan latencies under each OCM
    eviction policy (lru vs arc2q).

    On the plain TPC-H pass (no cache-pressure churn) the eviction
    policies see the same physical I/O, so lru and arc2q query times
    must agree closely — the scan-resistance win only appears under
    churn (the suite's ``churn_scan``; DESIGN.md §19's ``ocm_policy``
    row), and a divergence here would mean the
    policy layer itself perturbs the read path.
    """
    runs = benchmark.pedantic(suite.policy_ablation, rounds=1, iterations=1)
    names = list(runs)
    headers = ["query"] + names
    rows = [
        [f"Q{q}"] + [runs[name].query_times[q] for name in names]
        for q in range(1, 23)
    ]
    emit("figure6_policy_ablation", format_table(headers, rows))
    geomeans = {
        name: geomean(run.query_times.values()) for name, run in runs.items()
    }
    baseline = geomeans["lru"]
    for name, value in geomeans.items():
        ratio = value / baseline
        assert 0.95 < ratio < 1.05, (
            f"{name}: geomean {value:.2f}s diverges from lru "
            f"{baseline:.2f}s (x{ratio:.2f})"
        )
    benchmark.extra_info.update(
        {name: round(value, 2) for name, value in geomeans.items()}
    )
