"""PR 10 target workload: what elasticity buys, and what pre-warming saves.

One staged-ramp serving workload (80% point lookups against a hot bank,
20% ingest churn), four provisioning strategies, one emitted result:

- **static-2** — a right-sized fixed multiplex: cheap, but it has no
  headroom story and exists here as the human-tuned reference point.
- **static-max** — fixed provisioning at the autoscaler's ``max_nodes``
  clamp: the "just buy the peak" strategy the paper's elasticity pitch
  argues against.  Every node is cold at t=0 and round-robin routing
  dilutes cache locality across all of them for the whole run.
- **autoscaled** — starts at one node; the feedback controller grows
  the multiplex from live signals (admission queue, runnable backlog,
  windowed SLO attainment), pre-warming each new node's OCM from the
  coordinator's hot set before it takes traffic.
- **cold control** — the identical controller with ``prewarm=False``:
  new nodes join with empty caches and pay their compulsory misses
  against the shared store pipe while serving SLO-bound traffic.

Costs use the paper's price model: instance-seconds actually held
(the step integral of the live-node count for autoscaled runs) plus
per-request object-store charges.  Everything runs on the virtual
clock, so every number below is byte-stable across reruns.

Two readings the table forces honestly:

- Right-sizing still wins.  static-2 tops every strategy on $/attained
  op: in this dilution-dominated regime each extra node spreads the
  round-robin working set colder, so the elasticity claim is strictly
  against *peak* provisioning (static-max), per the paper — not
  against a human who already knows the right size.
- The warm/cold *overall* rows are not a controlled comparison.  The
  controller closes the loop through its own latencies, so a cold
  fleet's worse early p99 trips the SLO floor sooner and the two runs
  diverge into different scale schedules entirely.  The controlled
  read is the post-scale-out settling window, where only the cache
  temperature of the arriving node differs — that is what the final
  gate pins.

The drill runs the paper's per-page I/O path (``PAPER_IO``), the path
its shape and thresholds were set on.  At SF 0.002 every cold node starts
with a herd of identical GETs for the lookup bank's blockmap root, queued
1.4 s apart behind one sub-token prefix bucket (ROADMAP item 1), and the
herd's size — hence every number below — swings with the request order:
on the engine as shipped the same drill gives autoscaled 53.4 % / $0.1820
/ 10.42 s against static-4 39.8 % / $0.1517 and cold 6.56 s, i.e. the
attainment gate holds and the USD and settling-window gates do not
(ROADMAP item 7 owns that verdict).

Emits ``results/BENCH_pr10.json``.
"""

import functools
import math

import pytest
from bench_utils import emit, emit_json

from repro.bench import load
from repro.bench.load import LoadConfig, LoadHarness, TenantSpec
from repro.bench.report import format_table
from repro.core.autoscale import AutoscaleConfig
from repro.costs.pricing import DEFAULT_PRICES
from repro.engine import PAPER_IO

INSTANCE = "m5ad.4xlarge"
MAX_NODES = 4
STATIC_BASELINE = 2
#: Ops finishing within this many virtual seconds after a scale-out
#: completes are attributed to that event's "settling window".
POST_EVENT_WINDOW_SECONDS = 10.0

# A serving mix, not an analyst mix: sub-second SLOs and short ops are
# the regime where adding a node changes queueing within the SLO bound.
SERVING_MIX = (
    TenantSpec("lookup", 0.8, "lookup", think_mean=0.05,
               ops_per_session=40, slo_seconds=0.25),
    TenantSpec("churn", 0.2, "churn", think_mean=0.1,
               ops_per_session=20, slo_seconds=1.5),
)

# Arrivals spread over minutes (stage windows ~77s/39s/26s), so offered
# concurrency — not a thundering-herd backlog — is what ramps.
SHAPE = dict(
    sessions=150, seed=0, arrival_rate=2.0, stages=3,
    scale_factor=0.002, admission_limit=0, tenants=SERVING_MIX,
)


@pytest.fixture(autouse=True)
def paper_io_path(monkeypatch):
    """``LoadHarness`` builds the engine as shipped and takes no config
    overrides; the drill pins the path it was calibrated on here."""
    monkeypatch.setattr(
        load, "bench_config",
        functools.partial(load.bench_config, **PAPER_IO),
    )


def _p99(values):
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _post_event_p99(harness, summary):
    """Pooled lookup p99 over the settling window after each scale-out."""
    scale = summary["autoscale"]
    if scale is None:
        return None, 0
    epoch = harness._workload_started
    pooled = []
    for event in scale["events"]:
        if event["action"] != "scale_out":
            continue
        start = epoch + event["completed"]
        end = start + POST_EVENT_WINDOW_SECONDS
        pooled.extend(
            response
            for finished, tenant, response, __ in harness._op_log
            if tenant == "lookup" and start <= finished <= end
        )
    return _p99(pooled), len(pooled)


def _attainment(summary):
    attained = total = 0
    for tenant in summary["tenants"].values():
        if tenant["ops"] and tenant["slo_attainment"] is not None:
            total += tenant["ops"]
            attained += round(tenant["slo_attainment"] * tenant["ops"])
    return attained, total


def _run_variant(name, nodes, autoscale):
    harness = LoadHarness(LoadConfig(**SHAPE, nodes=nodes,
                                     autoscale=autoscale))
    summary = harness.run()
    store = harness.db.object_store.metrics.snapshot()
    request_usd = DEFAULT_PRICES.request_price("s3").cost(
        puts=int(store.get("put_requests", 0)),
        gets=int(store.get("get_requests", 0)),
    )
    scale = summary["autoscale"]
    if scale is not None:
        node_seconds = scale["node_seconds"]
    else:
        node_seconds = nodes * summary["clock_seconds"]
    instance_usd = (
        node_seconds / 3600.0 * DEFAULT_PRICES.instance_rate(INSTANCE)
    )
    attained, total = _attainment(summary)
    usd = instance_usd + request_usd
    post_p99, post_ops = _post_event_p99(harness, summary)
    return {
        "variant": name,
        "nodes": nodes,
        "clock_seconds": summary["clock_seconds"],
        "node_seconds": node_seconds,
        "instance_usd": instance_usd,
        "request_usd": request_usd,
        "usd": usd,
        "ops_total": total,
        "ops_within_slo": attained,
        "slo_attainment": attained / total if total else None,
        "usd_per_1k_attained": (usd / attained * 1000.0) if attained
        else None,
        "tenants": {
            tenant: {
                "ops": data["ops"],
                "slo_attainment": data["slo_attainment"],
                "p99_seconds": data["latency_seconds"]["p99"],
            }
            for tenant, data in summary["tenants"].items()
        },
        "routing": summary["routing"],
        "autoscale": scale,
        "post_scale_out": {
            "window_seconds": POST_EVENT_WINDOW_SECONDS,
            "lookup_p99_seconds": post_p99,
            "ops_observed": post_ops,
        } if scale is not None else None,
    }


def _run_all():
    return {
        "static_baseline": _run_variant(
            f"static-{STATIC_BASELINE}", STATIC_BASELINE, None
        ),
        "static_max": _run_variant(f"static-{MAX_NODES}", MAX_NODES, None),
        "autoscaled": _run_variant(
            "autoscaled", 1,
            AutoscaleConfig(min_nodes=1, max_nodes=MAX_NODES),
        ),
        "cold_control": _run_variant(
            "cold-control", 1,
            AutoscaleConfig(min_nodes=1, max_nodes=MAX_NODES,
                            prewarm=False),
        ),
    }


def test_elasticity_beats_static_peak_provisioning(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    static2 = results["static_baseline"]
    static_max = results["static_max"]
    auto = results["autoscaled"]
    cold = results["cold_control"]

    payload = {
        "workload": "staged_ramp_serving_mix",
        "shape": {k: v for k, v in SHAPE.items() if k != "tenants"},
        "instance": INSTANCE,
        "max_nodes": MAX_NODES,
        "variants": results,
    }
    emit_json("BENCH_pr10", payload)

    def row(res):
        post = res["post_scale_out"]
        return [
            res["variant"],
            f"{res['slo_attainment'] * 100:.1f}%",
            f"{res['node_seconds']:.0f}",
            f"${res['usd']:.4f}",
            f"${res['usd_per_1k_attained']:.3f}",
            f"{post['lookup_p99_seconds']:.2f}s" if post else "-",
        ]

    emit("BENCH_pr10", format_table(
        ["variant", "SLO attained", "node-s", "USD",
         "USD/1k attained", "post-scale-out p99"],
        [row(static2), row(static_max), row(auto), row(cold)],
    ))

    # Identical offered load everywhere: the tenant draw and session
    # schedule depend only on the seed, never on the node count.
    totals = {res["ops_total"] for res in results.values()}
    assert len(totals) == 1, f"variants saw different workloads: {totals}"

    # The controller actually acted, and only the warm run pre-warmed.
    assert auto["autoscale"]["scale_outs"] >= 1
    outs = [e for e in auto["autoscale"]["events"]
            if e["action"] == "scale_out"]
    assert all(e["prewarmed_entries"] > 0 for e in outs), \
        "every warm scale-out must copy a non-empty hot set"
    cold_outs = [e for e in cold["autoscale"]["events"]
                 if e["action"] == "scale_out"]
    assert cold_outs and all(
        e["prewarmed_entries"] == 0 for e in cold_outs
    )

    # PR 10 acceptance #1: growing to the same ceiling on demand matches
    # or beats buying the ceiling up front — on attainment AND on USD.
    assert auto["slo_attainment"] >= static_max["slo_attainment"], (
        f"autoscaled attained {auto['slo_attainment']:.4f} < "
        f"static-max {static_max['slo_attainment']:.4f}"
    )
    assert auto["usd"] < static_max["usd"], (
        f"autoscaled cost ${auto['usd']:.4f} >= "
        f"static-max ${static_max['usd']:.4f}"
    )

    # PR 10 acceptance #2: pre-warming pays off where it claims to —
    # in the settling window right after a node starts taking traffic.
    warm_p99 = auto["post_scale_out"]["lookup_p99_seconds"]
    cold_p99 = cold["post_scale_out"]["lookup_p99_seconds"]
    assert warm_p99 is not None and cold_p99 is not None
    assert warm_p99 < cold_p99, (
        f"pre-warmed post-scale-out p99 {warm_p99:.3f}s must beat "
        f"cold {cold_p99:.3f}s"
    )
