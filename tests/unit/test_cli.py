"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
