"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``quickstart`` — tiny end-to-end demo (load, query, storage stats),
- ``tpch`` — load TPC-H at a scale factor and run benchmark queries,
- ``compare`` — the S3 vs EBS vs EFS comparison (Tables 2/4 in miniature),
- ``table1`` — print the paper's Table 1 recovery walkthrough,
- ``chaos`` — run a named fault schedule against a live engine and report
  resilience metrics (breaker transitions, hedges, degraded reads) plus a
  committed-data durability check,
- ``load`` — multi-tenant load run on the session scheduler: arrival
  ramps, per-tenant latency SLOs, and a saturation curve,
- ``trace`` — run a workload with end-to-end tracing enabled, export the
  span tree as Chrome-trace JSON (loadable in ``about://tracing`` /
  Perfetto) and print a flamegraph-style attribution report,
- ``report`` — re-aggregate a previously exported trace JSON offline,
- ``scrub`` — damage a replicated store at rest, then run the budgeted
  background scrubber and prove it repairs every copy (DESIGN.md §15),
- ``fsck --deep`` — extend the metadata audit with content verification:
  every present object's bytes are re-checksummed against the recorded
  CRC-32C and mismatches are reported as CORRUPT.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.configs import load_engine
from repro.bench.report import format_table, geomean
from repro.costs.pricing import DEFAULT_PRICES
from repro.tpch import power_run

_VOLUME_PRICE_KEY = {"s3": "s3", "ebs": "ebs-gp2", "efs": "efs"}


def _cold(db) -> None:
    db.buffer.invalidate_all()
    if db.ocm is not None:
        db.ocm.drain_all()
        db.ocm.invalidate_all()


def cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.columnar import (
        ColumnSchema,
        ColumnStore,
        QueryContext,
        TableSchema,
    )
    from repro.columnar.exec import group_by, rows
    from repro.engine import Database, DatabaseConfig

    db = Database(DatabaseConfig(buffer_capacity_bytes=8 << 20,
                                 page_size=16 * 1024))
    store = ColumnStore(db)
    store.create_table(TableSchema(
        "demo", (ColumnSchema("k", "int"), ColumnSchema("v", "float")),
        rows_per_page=256,
    ))
    store.load("demo", [(i, float(i % 10)) for i in range(5000)])
    with QueryContext(db) as ctx:
        rel = ctx.read("demo", ["v"])
        agg = group_by(ctx, rel, [], {"total": ("sum", "v"),
                                      "n": ("count", None)})
    print(f"loaded 5000 rows in {db.clock.now():.2f} virtual seconds")
    print(f"sum(v) = {agg['total'][0]:.0f} over {agg['n'][0]} rows")
    print(f"objects on the store: {db.object_store.object_count()} "
          f"({db.user_data_bytes()} bytes at rest)")
    return 0


def cmd_tpch(args: argparse.Namespace) -> int:
    numbers = (
        [int(q) for q in args.queries.split(",")] if args.queries else None
    )
    db, store, load_seconds = load_engine(
        args.instance, args.volume, scale_factor=args.scale_factor
    )
    _cold(db)
    times = power_run(db, args.scale_factor, query_numbers=numbers)
    rows = [[f"Q{q}", times[q]] for q in sorted(times)]
    rows.append(["geomean", geomean(times.values())])
    print(f"load: {load_seconds:.1f} virtual seconds "
          f"({args.volume}, SF {args.scale_factor}, {args.instance})")
    print(format_table(["query", "seconds"], rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for volume in ("s3", "ebs", "efs"):
        db, store, load_seconds = load_engine(
            args.instance, volume, scale_factor=args.scale_factor
        )
        _cold(db)
        times = power_run(db, args.scale_factor, query_numbers=[1, 3, 6])
        monthly = DEFAULT_PRICES.storage_price(
            _VOLUME_PRICE_KEY[volume]
        ).monthly_cost(
            int(db.user_data_bytes() * (1000 / args.scale_factor))
        )
        rows.append([
            volume.upper(), load_seconds, times[1], times[3], times[6],
            monthly,
        ])
    print(format_table(
        ["volume", "load (s)", "Q1 (s)", "Q3 (s)", "Q6 (s)",
         "$/month at SF1000"],
        rows,
    ))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.bench.chaos import run_chaos_scenario

    result = run_chaos_scenario(
        schedule_name=args.schedule,
        seed=args.seed,
        start=args.start,
        pages=args.pages,
        regions=args.regions,
    )
    client = result["client_metrics"]
    store = result["store_metrics"]
    ocm = result["ocm_metrics"]
    rows = [
        ["virtual seconds", result["virtual_seconds"]],
        ["commits ok / failed",
         f"{result['commits_ok']} / {result['commits_failed']}"],
        ["committed pages verified", result["committed_pages"]],
        ["durability mismatches", result["mismatches"]],
        ["corrupt reads detected (unrepairable)",
         result["corrupt_detected"]],
        ["checksum mismatches caught",
         f"{client.get('checksum_mismatches', 0):.0f}"],
        ["read repairs (client / store)",
         f"{client.get('read_repairs', 0):.0f} / "
         f"{store.get('read_repairs', 0):.0f}"],
        ["hedge winners failing verification",
         f"{client.get('hedge_mismatch', 0):.0f}"],
        ["breaker opened / closed",
         f"{client.get('breaker_opened', 0):.0f} / "
         f"{client.get('breaker_closed', 0):.0f}"],
        ["breaker fast failures", client.get("breaker_fast_failures", 0)],
        ["hedged GETs / hedge wins",
         f"{client.get('hedged_gets', 0):.0f} / "
         f"{client.get('hedge_wins', 0):.0f}"],
        ["deadline expirations", client.get("deadline_expirations", 0)],
        ["retries (put/get/delete)",
         f"{client.get('put_retries', 0):.0f}/"
         f"{client.get('get_retries', 0):.0f}/"
         f"{client.get('delete_retries', 0):.0f}"],
        ["scheduled outage failures", store.get("fault_outage_failures", 0)],
        ["scheduled storm failures", store.get("fault_storm_failures", 0)],
        ["throttled-by-storm requests",
         store.get("fault_throttled_requests", 0)],
        ["degraded cache reads", ocm.get("degraded_reads", 0)],
        ["degraded queued writes", ocm.get("degraded_queued_writes", 0)],
        ["p99 GET latency (s)", result["p99_get_latency"]],
    ]
    for region, p99 in sorted(result["p99_get_latency_by_region"].items()):
        rows.append([f"p99 GET latency [{region}] (s)", p99])
    print(f"chaos schedule {result['schedule']!r} (seed {result['seed']})")
    print(format_table(["metric", "value"], rows))
    if result["mismatches"]:
        print(f"DURABILITY VIOLATION: {result['mismatches']} committed "
              "pages did not read back intact")
        return 1
    if result["corrupt_detected"]:
        print(f"INTEGRITY: {result['corrupt_detected']} corrupt reads were "
              "detected but could not be repaired (no healthy replica — "
              "run with --regions 2+ for read-repair)")
        return 1
    print("all committed data read back byte-identical after recovery")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.bench.load import LoadConfig, LoadHarness
    from repro.core.autoscale import AutoscaleConfig

    autoscale = None
    if args.autoscale:
        floor = args.autoscale_min if args.autoscale_min is not None \
            else args.nodes
        autoscale = AutoscaleConfig(
            min_nodes=floor,
            max_nodes=args.autoscale_max,
            prewarm=not args.no_prewarm,
        )
    harness = LoadHarness(LoadConfig(
        sessions=args.sessions,
        seed=args.seed,
        profile=args.profile,
        arrival_rate=args.rate,
        stages=args.stages,
        admission_limit=args.admission,
        scale_factor=args.scale_factor,
        instance_type=args.instance,
        nodes=args.nodes,
        autoscale=autoscale,
    ))
    summary = harness.run()
    if args.json:
        # Stdout stays pure JSON for machine consumers (the CI smoke job
        # diffs two runs byte-for-byte); the status line goes to stderr.
        print(json.dumps(summary, indent=2, sort_keys=True))
        print(f"load: {summary['ops']['completed']} ops in "
              f"{summary['clock_seconds']:g} virtual seconds "
              f"({harness.wall_seconds:.1f}s wall)", file=sys.stderr)
        return 0
    print(f"load run: {args.sessions} sessions, profile {args.profile!r}, "
          f"seed {args.seed} ({args.instance}, SF {args.scale_factor})")
    print(f"  {summary['ops']['completed']} ops completed, "
          f"{summary['ops']['failed']} failed, "
          f"{summary['clock_seconds']:g} virtual seconds, "
          f"{summary['scheduler']['handoffs']} scheduler handoffs "
          f"({harness.wall_seconds:.1f}s wall)")
    print()
    tenant_rows = []
    for name, tenant in summary["tenants"].items():
        tail = tenant["latency_seconds"]
        attainment = tenant["slo_attainment"]
        tenant_rows.append([
            name, tenant["sessions"], tenant["ops"],
            tail["p50"], tail["p95"], tail["p99"],
            f"{attainment:.1%}" if attainment is not None else "-",
        ])
    print(format_table(
        ["tenant", "sessions", "ops", "p50 (s)", "p95 (s)", "p99 (s)",
         "SLO attainment"],
        tenant_rows,
    ))
    print()
    stage_rows = []
    for point in summary["saturation"]:
        tail = point["latency_seconds"]
        offered = point["offered_sessions_per_second"]
        realized = point["realized_arrival_rate"]
        stage_rows.append([
            point["stage"], point["sessions"],
            offered if offered is not None else "closed",
            realized if realized is not None else "-", point["ops"],
            tail["p50"], tail["p99"],
        ])
    print(format_table(
        ["stage", "sessions", "offered /s", "realized /s", "ops",
         "p50 (s)", "p99 (s)"],
        stage_rows,
    ))
    if summary["admission"] is not None:
        admission = summary["admission"]
        print()
        print(f"admission: limit {admission['limit']}, "
              f"{admission['waits']} waits "
              f"(p95 wait {admission['wait_seconds']['p95']:g}s), "
              f"by tenant {admission['waits_by_tenant']}")
    if summary["routing"] is not None:
        print()
        print(f"routing (ops by node): {summary['routing']}")
    if summary["autoscale"] is not None:
        scale = summary["autoscale"]
        print(f"autoscale: {scale['scale_outs']} scale-outs, "
              f"{scale['scale_ins']} scale-ins, "
              f"final {scale['final_nodes']} node(s), "
              f"{scale['node_seconds']:g} node-seconds")
        for event in scale["events"]:
            detail = (
                f"prewarmed {event['prewarmed_entries']} OCM entries"
                if event["action"] == "scale_out"
                else f"reclaimed {event['reclaimed_keys']} keys"
            )
            print(f"  t={event['started']:g}s {event['action']} "
                  f"{event['node']} -> {event['nodes_after']} node(s) "
                  f"({detail}; queue {event['queue_depth']}, "
                  f"backlog {event['runnable_backlog']})")
    return 0


def _print_trace_summary(tracer) -> None:
    print()
    print("== flamegraph (inclusive virtual time) ==")
    print(tracer.flame_report())
    print()
    print("== latency by layer/op ==")
    print(format_table(list(tracer.LATENCY_HEADERS), tracer.latency_rows()))
    costs = tracer.cost_totals()
    rows = [
        [layer, round(seconds, 6), round(costs.get(layer, 0.0), 8)]
        for layer, seconds in sorted(tracer.layer_totals().items())
    ]
    print()
    print("== per-layer totals ==")
    print(format_table(["layer", "seconds", "request cost (USD)"], rows))


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.tracing import Tracer

    if args.workload == "quickstart":
        from repro.engine import Database, DatabaseConfig

        db = Database(DatabaseConfig(
            buffer_capacity_bytes=8 << 20,
            ocm_capacity_bytes=32 << 20,
            page_size=16 * 1024,
        ))
        tracer = Tracer(db.clock, meter=db.meter)
        db.attach_tracer(tracer)
        db.create_object("demo")
        txn = db.begin()
        for page in range(16):
            db.write_page(txn, "demo", page, (b"%03d" % page) * 256)
        db.commit(txn)
        db.buffer.invalidate_all()
        reader = db.begin()
        for page in range(16):
            db.read_page(reader, "demo", page)
        db.commit(reader)
        print(f"traced quickstart: {db.clock.now():.3f} virtual seconds, "
              f"{tracer.span_count()} spans")
    else:
        numbers = (
            [int(q) for q in args.queries.split(",")] if args.queries
            else [1, 6]
        )
        db, store, load_seconds = load_engine(
            args.instance, "s3", scale_factor=args.scale_factor
        )
        _cold(db)
        # The tracer is attached after the bulk load so the trace holds
        # only the queries, not millions of load-time spans.
        tracer = Tracer(db.clock, meter=db.meter)
        db.attach_tracer(tracer)
        times = power_run(db, args.scale_factor, query_numbers=numbers)
        total = sum(times.values())
        print(f"traced {len(times)} queries (SF {args.scale_factor}, "
              f"{args.instance}): {total:.3f} virtual seconds, "
              f"{tracer.span_count()} spans")
    tracer.write_chrome_trace(args.output)
    print(f"chrome trace written to {args.output} "
          "(load it in about://tracing or https://ui.perfetto.dev)")
    _print_trace_summary(tracer)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.sim.tracing import load_chrome_trace

    summary = load_chrome_trace(args.input)
    print(f"{summary['events']} spans in {args.input}")
    print(format_table(["layer/op", "count", "total (s)"], summary["rows"]))
    costs = summary["cost_totals"]
    rows = [
        [layer, round(seconds, 6), round(costs.get(layer, 0.0), 8)]
        for layer, seconds in sorted(summary["layer_totals"].items())
    ]
    print()
    print(format_table(["layer", "seconds", "request cost (USD)"], rows))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from repro.bench.crash_explorer import run_churn_episode

    result = run_churn_episode(
        args.crash_point or None,
        seed=args.seed,
        broken_gc=args.broken_gc,
        deep=args.deep,
    )
    report = result.report
    if report is None:
        print("fsck: the audit could not run", file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            ["objects scanned", report.objects_scanned],
            ["live", report.live],
            ["snapshot retained", report.snapshot_retained],
            ["pending GC", report.pending_gc],
            ["active-set covered", report.active_covered],
            ["LEAKED", len(report.leaked)],
            ["MISSING", len(report.missing)],
            ["snapshot MISSING", len(report.snapshot_missing)],
            ["already freed (benign)", report.already_freed],
            ["unparseable names", len(report.unparseable)],
        ]
        if report.deep:
            rows.append(["content verified", report.content_verified])
            rows.append(["CORRUPT", len(report.corrupt)])
            rows.append(["region CORRUPT", len(report.region_corrupt)])
        label = args.crash_point or "none"
        print(f"fsck after churn (seed {args.seed}, crash point {label}, "
              f"broken GC {'on' if args.broken_gc else 'off'}, "
              f"{'deep' if args.deep else 'shallow'})")
        print(format_table(["classification", "count"], rows))
        for name, key in report.leaked[:10]:
            print(f"  LEAKED  {name} {key:#x}")
        for name, key in report.missing[:10]:
            print(f"  MISSING {name} {key:#x}")
        for where, key in report.corrupt[:10]:
            print(f"  CORRUPT {where} {key:#x}")
    # The status line goes to stderr so `--json` keeps stdout pure for
    # machine consumers (CI gates on the exit code + the `ok` key).
    if not report.ok():
        print("fsck: store is NOT clean", file=sys.stderr)
        return 1
    print("fsck: store is clean", file=sys.stderr)
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    import json

    from repro.bench.scrub import run_scrub_scenario

    result = run_scrub_scenario(
        seed=args.seed,
        regions=args.regions,
        damage=args.damage,
        flips=args.flips,
        budget=args.budget,
    )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        scrub = result["scrub"]
        print(f"scrub drill (seed {result['seed']}, "
              f"{result['regions']} regions, "
              f"{result['damaged']} objects damaged at rest)")
        print(format_table(["measure", "value"], [
            ["objects scanned", scrub["objects_scanned"]],
            ["bytes scanned", scrub["bytes_scanned"]],
            ["regions scanned", ", ".join(scrub["regions_scanned"])],
            ["corrupt found", scrub["corrupt_found"]],
            ["repaired", scrub["repaired"]],
            ["quarantined", len(scrub["quarantined"])],
            ["deep fsck CORRUPT before", result["corrupt_before"]],
            ["deep fsck CORRUPT after", result["corrupt_after"]],
            ["scrub budget (bytes/s)", result["bytes_per_second"]],
            ["scrub pass (virtual s)",
             round(result["scrub_virtual_seconds"], 3)],
        ]))
        for region, name in scrub["quarantined"][:10]:
            print(f"  QUARANTINED [{region}] {name}")
    if result["corrupt_before"] != result["damaged"]:
        print(f"scrub: deep fsck counted {result['corrupt_before']} CORRUPT "
              f"copies before the pass, not the {result['damaged']} damaged",
              file=sys.stderr)
        return 1
    scrub_ok = result["scrub"]["ok"]
    if not (scrub_ok and result["corrupt_after"] == 0
            and result["audit_ok_after"]):
        why = ("quarantined copies remain" if not scrub_ok
               else "deep fsck still reports corruption")
        print(f"scrub: store is NOT clean ({why})", file=sys.stderr)
        return 1
    print("scrub: every damaged copy repaired; deep fsck clean",
          file=sys.stderr)
    return 0


def cmd_dr(args: argparse.Namespace) -> int:
    import json

    from repro.bench.dr import DrillConfig, run_dr_drill

    result = run_dr_drill(DrillConfig(
        seed=args.seed,
        mean_lag_seconds=args.lag,
        staleness_horizon=args.horizon,
        outage_seconds=args.outage,
    ))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"disaster-recovery drill (seed {args.seed}, mean lag "
              f"{args.lag:g}s, staleness horizon {args.horizon:g}s)")
        print(format_table(
            ["clock (s)", "phase", "event"],
            [[when, phase, text] for when, phase, text in result.events],
        ))
        print()
        print(format_table(["measure", "value"], [
            ["failover (s)", round(result.failover_seconds, 3)],
            ["RTO: first query on new primary (s)",
             round(result.rto_seconds, 3)],
            ["RPO: acknowledged writes (s)",
             result.rpo_acknowledged_seconds],
            ["RPO bound: staleness horizon (s)", result.rpo_bound_seconds],
            ["worst observed replication lag (s)",
             round(result.max_observed_lag_seconds, 3)],
            ["entries drained at promotion", result.drained_entries],
            ["fsck across regions", "clean" if result.audit_ok else "DIRTY"],
            ["cross-region restore", "ok" if result.restore_ok else "FAILED"],
        ]))
    if not result.ok:
        for violation in result.violations:
            print(f"dr: {violation}", file=sys.stderr)
        print("dr: the drill violated its recovery invariants",
              file=sys.stderr)
        return 1
    print("dr: outage -> failover -> heal -> fsck -> restore all clean",
          file=sys.stderr)
    return 0


def cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.bench.crash_explorer import explore_all_points, run_episode

    if args.point:
        results = [run_episode(args.point, seed=args.seed)]
    else:
        results = explore_all_points(seed=args.seed)
    rows = []
    violations = 0
    for result in results:
        rows.append([
            result.crash_point or "(none)",
            result.mode,
            result.fired,
            result.crashes,
            "ok" if result.ok else "; ".join(result.violations),
        ])
        violations += len(result.violations)
    print(format_table(
        ["crash point", "episode", "fired", "crashes", "verdict"], rows
    ))
    fired = sum(result.fired for result in results)
    print(f"{len(results)} episodes, {fired} injected crashes, "
          f"{violations} invariant violations")
    if violations:
        print("CRASH EXPLORATION FAILED: recovery invariants violated")
        return 1
    print("all episodes recovered with no data loss, no missing objects, "
          "and no leaks")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.table1 import run_table1_scenario

    print(format_table(["Clock", "Event", "Description", "Active Set (W1)"],
                       run_table1_scenario()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Bringing Cloud-Native Storage to "
                    "SAP IQ' (SIGMOD 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="tiny end-to-end demo")

    tpch = sub.add_parser("tpch", help="load TPC-H and run queries")
    tpch.add_argument("--scale-factor", type=float, default=0.005)
    tpch.add_argument("--volume", choices=("s3", "ebs", "efs"), default="s3")
    tpch.add_argument("--instance", default="m5ad.24xlarge")
    tpch.add_argument("--queries", default="",
                      help="comma-separated query numbers (default: all 22)")

    compare = sub.add_parser("compare", help="S3 vs EBS vs EFS comparison")
    compare.add_argument("--scale-factor", type=float, default=0.005)
    compare.add_argument("--instance", default="m5ad.24xlarge")

    sub.add_parser("table1", help="print the Table 1 recovery walkthrough")

    chaos = sub.add_parser(
        "chaos", help="run a named fault schedule and report resilience"
    )
    chaos.add_argument("--schedule", default="storm",
                       choices=["storm", "bitrot", "torn-read"],
                       help="named fault schedule to run (bitrot and "
                            "torn-read corrupt payloads and turn on "
                            "verified reads)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--start", type=float, default=5.0,
                       help="virtual time at which the schedule begins")
    chaos.add_argument("--pages", type=int, default=6,
                       help="pages written per committed generation")
    chaos.add_argument("--regions", type=int, default=1,
                       help="object-store regions (>1 turns on replication)")

    load = sub.add_parser(
        "load",
        help="multi-tenant load run on the session scheduler: arrival "
             "ramps, tenant SLOs, saturation curve",
    )
    load.add_argument("--sessions", type=int, default=200,
                      help="logical client sessions to run")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--profile", default="poisson",
                      choices=["poisson", "bursty", "closed"],
                      help="arrival process (closed = all present at t=0)")
    load.add_argument("--rate", type=float, default=40.0,
                      help="stage-1 session arrivals per virtual second")
    load.add_argument("--stages", type=int, default=3,
                      help="ramp stages; stage s offers s× the base rate")
    load.add_argument("--admission", type=int, default=0,
                      help="max concurrent in-engine ops (0 = unlimited)")
    load.add_argument("--scale-factor", type=float, default=0.002)
    load.add_argument("--instance", default="m5ad.4xlarge")
    load.add_argument("--nodes", type=int, default=1,
                      help="serving nodes at t=0 (coordinator + multiplex "
                           "secondaries, round-robin routed)")
    load.add_argument("--autoscale", action="store_true",
                      help="run the elastic controller: grow/shrink "
                           "secondaries from live load signals")
    load.add_argument("--autoscale-min", type=int, default=None,
                      help="autoscale floor (default: --nodes)")
    load.add_argument("--autoscale-max", type=int, default=4,
                      help="autoscale ceiling, total serving nodes")
    load.add_argument("--no-prewarm", action="store_true",
                      help="skip OCM pre-warming on scale-out (cold-node "
                           "control for the pre-warm ablation)")
    load.add_argument("--json", action="store_true",
                      help="print the machine-readable summary (stdout is "
                           "pure JSON; deterministic for a given config)")

    trace = sub.add_parser(
        "trace",
        help="run a workload with tracing; export Chrome-trace JSON",
    )
    trace.add_argument("workload", choices=("tpch", "quickstart"),
                       help="workload to trace")
    trace.add_argument("--scale-factor", type=float, default=0.002)
    trace.add_argument("--instance", default="m5ad.24xlarge")
    trace.add_argument("--queries", default="1,6",
                       help="comma-separated query numbers (tpch workload)")
    trace.add_argument("--output", default="trace.json",
                       help="Chrome-trace JSON output path")

    report = sub.add_parser(
        "report", help="re-aggregate a previously exported trace JSON"
    )
    report.add_argument("--input", default="trace.json",
                        help="trace JSON produced by `repro trace`")

    fsck = sub.add_parser(
        "fsck",
        help="audit the object store against engine metadata (cloud fsck)",
    )
    fsck.add_argument("--seed", type=int, default=0)
    fsck.add_argument("--crash-point", default="",
                      help="arm this crash point during the churn workload")
    fsck.add_argument("--broken-gc", action="store_true",
                      help="sabotage GC to demonstrate leak detection")
    fsck.add_argument("--deep", action="store_true",
                      help="also verify every object's bytes against its "
                           "recorded CRC-32C (reports CORRUPT)")
    fsck.add_argument("--json", action="store_true",
                      help="print the machine-readable audit report")

    scrub = sub.add_parser(
        "scrub",
        help="damage a replicated store at rest, then run the budgeted "
             "background scrubber and verify repairs (deep fsck gated)",
    )
    scrub.add_argument("--seed", type=int, default=0)
    scrub.add_argument("--regions", type=int, default=3,
                       help="object-store regions (1 = no replicas: "
                            "damage is quarantined, not repaired)")
    scrub.add_argument("--damage", type=int, default=4,
                       help="stored objects to bit-flip at rest")
    scrub.add_argument("--flips", type=int, default=3,
                       help="bit flips per damaged object")
    scrub.add_argument("--budget", type=float, default=None,
                       help="scrub budget in bytes per virtual second "
                            "(default 8 MiB/s)")
    scrub.add_argument("--json", action="store_true",
                       help="print the machine-readable drill result")

    dr = sub.add_parser(
        "dr",
        help="disaster-recovery drill: region outage, failover, heal, "
             "fsck, cross-region restore",
    )
    dr.add_argument("--seed", type=int, default=0)
    dr.add_argument("--lag", type=float, default=0.5,
                    help="mean replication lag in virtual seconds")
    dr.add_argument("--horizon", type=float, default=30.0,
                    help="bounded-staleness horizon in virtual seconds")
    dr.add_argument("--outage", type=float, default=60.0,
                    help="primary-region outage length in virtual seconds")
    dr.add_argument("--json", action="store_true",
                    help="print the machine-readable drill result")

    crashtest = sub.add_parser(
        "crashtest",
        help="systematically crash at registered points and verify recovery",
    )
    crashtest.add_argument("--all-points", action="store_true",
                           help="one episode per registered point (default)")
    crashtest.add_argument("--point", default="",
                           help="run a single named crash point")
    crashtest.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "quickstart": cmd_quickstart,
        "tpch": cmd_tpch,
        "compare": cmd_compare,
        "table1": cmd_table1,
        "chaos": cmd_chaos,
        "load": cmd_load,
        "trace": cmd_trace,
        "report": cmd_report,
        "fsck": cmd_fsck,
        "scrub": cmd_scrub,
        "dr": cmd_dr,
        "crashtest": cmd_crashtest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
