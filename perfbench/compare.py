#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same commit and compare them.

    python3 perfbench/compare.py

Run from the root of the repository. Each set runs every workload of
BENCHMARK.json once per seed, ten seeds a set: set 1 uses seeds 1-10,
set 2 seeds 11-20. For every workload and end-to-end metric it prints each
set's median and quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) as a share of the median, and whether the sets agree:
  - each spread is within the metric's bound;
  - the two medians differ by no more than the bound, in either direction;
  - the share of failed operations is the same in both sets.
The bounds in BENCHMARK.json were set from this report. Exit code 0 when
every check holds.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(config, workload, seed):
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed with code %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]

    runs = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for workload in workloads:
                runs.setdefault((s, workload), []).append(
                    run_once(config, workload, seed))
                print("set %d %-8s seed %-4d done" % (s + 1, workload, seed),
                      file=sys.stderr)

    all_ok = True
    for workload in workloads:
        print("\n== %s (%d runs per set)" % (workload, RUNS))
        failed_shares = []
        for s in range(SETS):
            results = runs[(s, workload)]
            failed_shares.append(
                sorted(r["failed"] / r["attempted"] for r in results))
            if not all(r["correct"] for r in results):
                print("  set %d: a run reported correct=false" % (s + 1))
                all_ok = False
        if failed_shares[0] != failed_shares[1]:
            print("  failed share differs between sets")
            all_ok = False
        print("  %-24s %12s %12s %12s %8s %8s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for r in runs[(s, workload)]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "ok" if spread <= bound else "SPREAD"
                if spread > bound / 3:
                    verdict += " (>1/3 bound)"
                all_ok = all_ok and spread <= bound
                print("  %-24s %12.5g %12.5g %12.5g %8.3f %8.3f %s" % (
                    name if s == 0 else "  set 2", med, q1, q3, spread,
                    bound, verdict))
            shift = (medians[1] - medians[0]) / medians[0]
            ok = abs(shift) <= bound
            all_ok = all_ok and ok
            print("  %-24s %+11.3f%% of set 1 median: %s" % (
                "  shift", shift * 100, "ok" if ok else "SHIFT"))
    print("\nverdict: %s" % ("sets agree within the bounds" if all_ok
                             else "sets DISAGREE"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
