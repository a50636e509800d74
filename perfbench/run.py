#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload oltp_wide --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds perfbench/fdb_perf.exe with
dune, runs the workload in one single-threaded process, and prints as the
last line of standard output one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics. A traced run first runs the same seed untraced: it reports the
tracing overhead as the difference in wall_s_per_sim_s, and fails its
checks unless both runs give identical simulated-time metrics and the
same engine checksum. Spans go to .bench_out/.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fdb_perf.exe")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("oltp_wide", "commit_hot", "failover")
# Every run must end within 180 s of being started (the build excepted).
RUN_BUDGET = 170
# Address-space cap per workload process: a run whose load collapses fails
# instead of exhausting the machine's memory. Peak heaps are under 1.2 GB.
MEMORY_CAP = 3 << 30


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("run from the root of a source checkout (%s is missing)" % need)
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/fdb_perf.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_once(args, trace, deadline, spans=None):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), cwd=ROOT,
                              preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        die("workload %s timed out" % args.workload)
    out = proc.stdout.decode(errors="replace")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        die("workload %s exited with code %d" % (args.workload, proc.returncode))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    build()
    deadline = time.monotonic() + RUN_BUDGET
    errors = []
    if args.trace == 0:
        res = run_once(args, 0, deadline)
        metrics = dict(res["sim"], **res["wall"])
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        base = run_once(args, 0, deadline)
        res = run_once(args, 1, deadline, spans)
        if res["sim"] != base["sim"]:
            errors.append("traced run changed simulated-time metrics")
        if res["checksum"] != base["checksum"]:
            errors.append("traced run changed the engine checksum")
        errors += base["errors"]
        untraced = base["wall"]["wall_s_per_sim_s"]["value"]
        traced = res["wall"]["wall_s_per_sim_s"]["value"]
        metrics = dict(res["layer"])
        metrics["trace.wall_s_per_sim_s"] = {"value": traced, "unit": "s/s"}
        metrics["trace.overhead_wall_s_per_sim_s"] = {"value": traced - untraced, "unit": "s/s"}
        with open(os.path.join(OUT_DIR, "layers-%s-%d.json" % (args.workload, args.seed)), "w") as f:
            json.dump(metrics, f, indent=1, sort_keys=True)
    errors += res["errors"]
    for e in errors:
        print("CHECK FAILED: " + e)
    print(json.dumps({"correct": not errors, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
