"""Tests of the benchmark suite itself, on ``--quick`` sizes (under a minute).

Not part of tier-1 (``testpaths`` is ``tests``); run with

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def suite(*args, cwd=REPO, script="run.py"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "suite", script),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two untraced quick runs of all five workloads."""
    out = tmp_path_factory.mktemp("suite")
    results = []
    for index in range(2):
        path = str(out / f"run{index}.json")
        done = suite("--quick", "--repeats", "1", "--out", path)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        with open(path) as handle:
            results.append((path, json.load(handle), done.stdout))
    return results


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/suite"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 8) <= 3420
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_manifest_matches_the_catalogue(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    end_to_end = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        moved, workload = metric.moves
        assert moved in end_to_end, metric
        assert workload in metrics.WORKLOADS, metric


def test_quick_runs_are_correct_and_complete(quick_runs):
    for __, result, stdout in quick_runs:
        assert set(result["workloads"]) == set(metrics.WORKLOADS)
        assert result["environment"]["python"]
        for name, entry in result["workloads"].items():
            assert entry["failed"] == 0, (name, entry["failures"])
            assert entry["attempted"] >= 1
            for metric in metrics.END_TO_END:
                row = entry["end_to_end"][metric.name]
                assert row["value"] > 0, (name, metric.name)
                assert row["n"] == len(row["samples"])
                assert row["q1"] <= row["value"] <= row["q3"]
        # The driver reads the last line of a single-workload run.
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert set(last["metrics"]) == {m.name for m in metrics.END_TO_END}


def test_two_quick_runs_agree_on_the_virtual_clock(quick_runs):
    (__, first, __), (__, second, __) = quick_runs
    for name in metrics.WORKLOADS:
        for metric in metrics.END_TO_END:
            if metric.clock in ("virtual", "count"):
                a = first["workloads"][name]["end_to_end"][metric.name]
                b = second["workloads"][name]["end_to_end"][metric.name]
                assert a["value"] == b["value"], (name, metric.name)


def test_traced_run_reports_every_layer_and_reconciles():
    # run.py itself fails when the layer self times do not add up to the
    # traced timed phase, or when tracing moved a virtual metric.
    for name in metrics.WORKLOADS:
        done = suite("--quick", "--repeats", "1", "--trace", "1",
                     "--workload", name)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert last["correct"] is True
        assert set(last["metrics"]) == {m.name for m in metrics.PER_LAYER}
        assert last["metrics"]["suite.spans"]["value"] > 0
        trace = os.path.join(HERE, "out", f"trace-{name}.json")
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        assert all({"name", "cat", "ts", "dur"} <= set(e) for e in spans)
        assert all("parent" in e["args"] for e in spans)


def test_compare_passes_a_pair_and_flags_a_wall_regression(
        quick_runs, manifest, tmp_path):
    path, result, __ = quick_runs[0]
    same = suite(path, path, script="compare.py")
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout
    slower = copy.deepcopy(result)
    row = slower["workloads"]["power_cold"]["end_to_end"]["wall_s"]
    bound = next(m["bound"] for m in manifest["end_to_end"]
                 if m["name"] == "wall_s")
    for key in ("value", "q1", "q3"):
        row[key] *= 1 + bound + 0.05
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    flagged = suite(path, str(worse), script="compare.py")
    assert flagged.returncode == 1
    assert re.search(r"wall_s\s+regressed", flagged.stdout)
    failing = copy.deepcopy(result)
    failing["workloads"]["serve_mix"]["failed"] = 1
    broken = tmp_path / "failing.json"
    broken.write_text(json.dumps(failing))
    assert suite(path, str(broken), script="compare.py").returncode == 1


def test_wrong_expected_output_fails_the_run(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(REPO, "src"), checkout / "src")
    shutil.copytree(HERE, checkout / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), checkout)
    expected = checkout / "benchmarks/suite/expected/power_cold.quick.json"
    table = json.loads(expected.read_text())
    table["7"]["Q6"] = "0" * 16
    expected.write_text(json.dumps(table))
    done = suite("--quick", "--repeats", "1", "--workload", "power_cold",
                 cwd=str(checkout))
    assert done.returncode != 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    done = suite("--workload", "bulk_load", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(bare))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
