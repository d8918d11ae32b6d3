#!/usr/bin/env python3
"""Run the benchmark the way the driver does and report how steady it is.

    python3 benchmarks/suite/steady.py [--seeds 10] [--first-seed 1]
                                       [--workload W] [--out set.json]

For every workload of ``BENCHMARK.json`` the command runs once per seed in
its own process (``--workload W --seed S --seconds run_seconds --trace 0``).
Per end-to-end metric it prints the median over the seeds and the spread
(distance between the quartiles as a share of the median) beside the
metric's bound; a spread above a third of the bound is flagged.  ``--out``
writes the set in the result-file format, one sample per seed, so two sets
can be compared with ``compare.py`` (the "two sets of runs agree" check).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from run import environment  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="only this workload (may repeat)")
    parser.add_argument("--out", help="write the set of runs here")
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    result = {"schema": "repro.suite/v1", "environment": environment(),
              "workloads": {}}
    unsteady = failed = 0
    for name in names:
        samples = {metric: [] for metric in bounds}
        longest = 0.0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                manifest["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(manifest["run_seconds"]), "--trace", "0",
                ], cwd=REPO, capture_output=True, text=True, timeout=180)
            longest = max(longest, time.perf_counter() - started)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
                print(f"{name} seed {seed}: exit code {done.returncode}")
                failed += 1
                continue
            line = json.loads(done.stdout.strip().splitlines()[-1])
            failed += line["failed"]
            for metric, value in line["metrics"].items():
                samples[metric].append(value["value"])
        print(f"\n== {name}: {args.seeds} seeds, longest run {longest:.1f} s")
        entry = {}
        for metric, values in samples.items():
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if metric != "setup_s" and spread > bounds[metric] / 3:
                flag = "  <-- above a third of the bound"
                unsteady += 1
            print(f"  {metric:<28} median {median:>14.6g} {units[metric]:<6}"
                  f" spread {spread:8.4%}  bound {bounds[metric]:.0%}{flag}")
            entry[metric] = {"value": median, "n": len(values), "q1": q1,
                             "q3": q3, "samples": values,
                             "unit": units[metric]}
        result["workloads"][name] = {"end_to_end": entry, "failed": failed}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    print(f"\n{unsteady} spreads above a third of their bound, "
          f"{failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
