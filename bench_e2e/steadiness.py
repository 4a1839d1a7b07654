#!/usr/bin/env python3
"""Runs each workload k times and shows how steady its end-to-end metrics are.

    python3 bench_e2e/steadiness.py [--runs 10] [--workloads a,b]
                                    [--first-seed 1] [--out raw.json]

Run i of a workload uses seed first-seed + i. For every end-to-end metric
in BENCHMARK.json it prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) as a
share of the median, and the metric's bound. A spread below a third of the
bound is marked "ok", one below the bound "wide", anything else "FAIL";
setup_s is judged the same way. It also prints the failed share of
operations per run, which must be the same in every run. Use it to set
bounds, and again whenever the machine changes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited with "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    raw = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, spec["run_seconds"])
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        raw[workload] = results
        print(f"\n{workload}: {args.runs} runs of {spec['run_seconds']} s")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>7}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "wide"
            else:
                verdict = "FAIL"
            print(f"  {m['name']:<16} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {m['bound']:7.3f}  {verdict}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"  failed share per run: {shares}; all correct: {correct}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
