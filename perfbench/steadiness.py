#!/usr/bin/env python3
"""Run each workload N times and report how steady every metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seconds S]
        [--workloads sim-durable-log,rt-tcp-mixed,mc-adore] [--seed-base 1]

Each run gets its own seed (seed-base, seed-base + 1, ...). For every
end-to-end metric the script prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json. It also prints every run's share of failed operations,
which must be the same in every run. The bounds in BENCHMARK.json come
from this command. Exit status: 0 if every spread is within its bound
and the failed share never changes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1)
    opts = ap.parse_args()

    steady = True
    for workload in opts.workloads.split(","):
        runs = []
        for i in range(opts.runs):
            res = run_once(workload, opts.seed_base + i, opts.seconds)
            runs.append(res)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in res["metrics"].items())
            print(f"{workload} seed {opts.seed_base + i}: correct="
                  f"{res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: failed share per run: {shares}")
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
        print(f"{'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            if ratio > 1:
                steady = False
            print(f"{m['name']:<14} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {ratio:>12.3f}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
