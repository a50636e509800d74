#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 perfbench/spread.py --seeds 10 [--workload commit_hot ...] [--seconds 10]

Runs perfbench/run.py once per seed (seeds 1..N) for each workload and
prints, per metric, the median of the values and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median, beside the metric's bound from BENCHMARK.json. A spread above
a third of the bound is flagged. Raw values go to .bench_out/spread-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {m: [] for m in bounds}
        for seed in range(1, args.seeds + 1):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, check=True).stdout.decode()
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (w, seed, res["correct"], res["failed"]))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        with open(".bench_out/spread-%s.json" % w, "w") as f:
            json.dump(values, f, indent=1)
        print("\n%s (%d seeds)" % (w, args.seeds))
        print("%-18s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[m] / 3 else ("  > bound/3" if spread <= bounds[m] else "  > BOUND")
            print("%-18s %14.4f %9.4f %7.2f%s" % (m, statistics.median(vs), spread, bounds[m], flag))


if __name__ == "__main__":
    main()
