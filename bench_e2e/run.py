#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the build (libxst
from src/ plus the benchmark, CMake Release) goes to $CARGO_TARGET_DIR, or
.bench_build, under the checkout root. The program's own lines pass
through; the last line printed is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds the end_to_end metrics
BENCHMARK.json names (--trace 0) or its per_layer metrics (--trace 1).
A traced run also writes a Chrome trace-event file into the build
directory. Exits non-zero, printing no result, if anything fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_root):
    src = os.path.join(ROOT, "bench_e2e")
    out = os.path.join(build_root, "bench_e2e")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("libxst sources (src/) are missing from this checkout", 2)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json is missing", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)

    workdir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    trace_out = os.path.join(
        build_root, f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env.pop("XST_VERIFY_PROGRAMS", None)
    env.pop("XST_METRICS_OUT", None)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"bench_e2e exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("bench_e2e printed no result line")
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail(f"bench_e2e did not measure {', '.join(missing)}")
    for line in lines[:-1]:
        print(line)
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
