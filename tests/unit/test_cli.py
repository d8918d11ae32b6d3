"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


def test_quickstart(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "loaded 5000 rows" in out
    assert "sum(v) = 22500" in out


def test_tpch_subset(capsys):
    assert main(["tpch", "--scale-factor", "0.002", "--queries", "6"]) == 0
    out = capsys.readouterr().out
    assert "Q6" in out
    assert "geomean" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Coordinator recovers" in out
    assert "(empty)" in out


def test_compare_prints_the_volume_table(capsys):
    assert main(["compare", "--scale-factor", "0.001"]) == 0
    out = capsys.readouterr().out
    assert "$/month at SF1000" in out
    for volume in ("S3", "EBS", "EFS"):
        assert volume in out


def test_load_prints_tenant_and_stage_tables(capsys):
    assert main(["load", "--sessions", "20", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "load run: 20 sessions" in out
    assert "SLO attainment" in out
    assert "offered /s" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trace_quickstart_writes_chrome_trace(tmp_path, capsys):
    import json

    output = tmp_path / "trace.json"
    assert main(["trace", "quickstart", "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert "flamegraph" in out
    assert "layer/op" in out
    payload = json.loads(output.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert any(e.get("ph") == "X" for e in payload["traceEvents"])


def test_trace_tpch_and_report_round_trip(tmp_path, capsys):
    output = tmp_path / "trace.json"
    assert main([
        "trace", "tpch", "--scale-factor", "0.002", "--queries", "6",
        "--output", str(output),
    ]) == 0
    trace_out = capsys.readouterr().out
    assert "Q6" in trace_out
    assert "spans" in trace_out

    assert main(["report", "--input", str(output)]) == 0
    report_out = capsys.readouterr().out
    assert "query/Q6" in report_out
    assert "store/get" in report_out


def test_parser_accepts_trace_and_report():
    args = build_parser().parse_args(["trace", "tpch", "--queries", "1,6"])
    assert args.command == "trace"
    assert args.workload == "tpch"
    args = build_parser().parse_args(["report"])
    assert args.input == "trace.json"


@pytest.mark.parametrize("argv, message", [
    (["tpch", "--scale-factor", "nan"],
     "scale factor must be positive and finite"),
    (["dr", "--lag", "nan"], "mean lag must be non-negative and finite"),
    (["chaos", "--start", "nan"],
     "fault window must be non-empty with a finite start"),
], ids=["tpch", "dr", "chaos"])
def test_a_non_finite_input_is_refused_with_its_reason(argv, message):
    with pytest.raises(ValueError, match=message):
        main(argv)


@pytest.mark.parametrize("argv, message", [
    (["scrub", "--flips", "0"], "at least one bit flip"),
    (["scrub", "--damage", "0"], "damages at least one object"),
    (["scrub", "--damage", "-1"], "damages at least one object"),
    (["chaos", "--pages", "0"], "verifies at least one page"),
], ids=["scrub-flips", "scrub-damage", "scrub-negative-damage",
        "chaos-pages"])
def test_a_drill_that_would_check_nothing_is_refused(argv, message):
    with pytest.raises(ValueError, match=message):
        main(argv)


def test_scrub_fails_when_fsck_misses_damage(monkeypatch, capsys):
    """The drill's verdict needs the deep fsck before the pass to have
    counted every object it damaged."""
    from repro.bench import scrub

    real = scrub.run_scrub_scenario

    def undercounted(**kwargs):
        result = real(**kwargs)
        result["corrupt_before"] -= 1
        return result

    monkeypatch.setattr(scrub, "run_scrub_scenario", undercounted)
    assert main(["scrub", "--seed", "0"]) == 1
    assert "not the 4 damaged" in capsys.readouterr().err


def load_json_twice(argv):
    """``repro load --json`` output, checked byte-identical across two
    processes (each with its own hash seed), parsed."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    outputs = [
        subprocess.run([sys.executable, "-m", "repro", "load", *argv,
                        "--json"], env=env, capture_output=True, check=True,
                       ).stdout
        for __ in range(2)
    ]
    assert outputs[0] == outputs[1]
    return json.loads(outputs[0])


def test_load_json_is_deterministic_and_reports_the_slo_schema():
    summary = load_json_twice(["--sessions", "250", "--seed", "0"])
    assert summary["schema"] == "repro.load/v2"
    assert summary["ops"]["completed"] > 0
    for tenant in summary["tenants"].values():
        assert {"p50", "p95", "p99"} <= tenant["latency_seconds"].keys()
        assert tenant["slo_attainment"] is not None
    assert summary["saturation"]


def test_autoscaled_load_json_is_deterministic_and_scales_out():
    summary = load_json_twice([
        "--sessions", "60", "--seed", "0", "--scale-factor", "0.001",
        "--rate", "60", "--admission", "3", "--autoscale",
        "--autoscale-max", "3",
    ])
    scale = summary["autoscale"]
    assert scale is not None and scale["scale_outs"] >= 1
    outs = [e for e in scale["events"] if e["action"] == "scale_out"]
    assert all(e["prewarmed_entries"] > 0 for e in outs)
    dynamic = {node: ops for node, ops in summary["routing"].items()
               if node != "coordinator"}
    assert dynamic and any(ops > 0 for ops in dynamic.values())
