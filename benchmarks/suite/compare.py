#!/usr/bin/env python3
"""Compare two result files of the suite, metric by metric.

    python3 benchmarks/suite/compare.py A.json B.json

A is the base (the parent commit, or the first set of runs), B the
candidate.  Both are files written by ``run.py --out`` or ``steady.py
--out``.  For every (workload, end-to-end metric) present in both, the
verdict uses the metric's bound from ``BENCHMARK.json``:

    regressed    B's median is worse than A's by more than the bound
    improved     B's median is better than A's by more than the bound
    unchanged    the medians are within the bound of each other
    unresolved   a side's own spread (quartile distance / median) is wider
                 than the bound, so the bound cannot be resolved

Every ratio is printed with its base.  The exit code is non-zero when any
metric regressed or B failed more operations than A.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def spread(row: "Dict[str, object]") -> float:
    if row.get("n", 1) < 2 or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def verdict(base: "Dict[str, object]", new: "Dict[str, object]", better: str,
            bound: float) -> "Tuple[str, float]":
    """(verdict, worsening as a share of the base; negative = better)."""
    a, b = base["value"], new["value"]
    change = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed", worse
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse
    return ("improved" if worse < -bound else "unchanged"), worse


def compare(a: "Dict[str, object]", b: "Dict[str, object]",
            manifest: "Dict[str, object]") -> "Tuple[List[str], int]":
    """Report lines and the number of findings that fail the comparison."""
    lines: "List[str]" = []
    bad = 0
    for name, base_entry in a["workloads"].items():
        new_entry = b["workloads"].get(name)
        if new_entry is None:
            continue
        lines.append(f"== {name}")
        for metric in manifest["end_to_end"]:
            base = base_entry["end_to_end"].get(metric["name"])
            new = new_entry["end_to_end"].get(metric["name"])
            if base is None or new is None:
                continue
            word, worse = verdict(base, new, metric["better"], metric["bound"])
            bad += word == "regressed"
            unit = metric["unit"]
            lines.append(
                f"  {metric['name']:<28} {word:<10} "
                f"{base['value']:.6g} {unit} -> {new['value']:.6g} {unit} "
                f"({worse:+.2%} worse, of base {base['value']:.6g} {unit}; "
                f"bound {metric['bound']:.0%}; spreads "
                f"{spread(base):.2%} / {spread(new):.2%})")
        failed_a = base_entry.get("failed", 0)
        failed_b = new_entry.get("failed", 0)
        if failed_b > failed_a:
            bad += 1
            lines.append(f"  failed operations rose from {failed_a} to "
                         f"{failed_b}")
    return lines, bad


def main(argv: "List[str]") -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    lines, bad = compare(a, b, manifest)
    print("\n".join(lines))
    print(f"\n{bad} regressions or new failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
