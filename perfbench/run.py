#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures perfbench/CMakeLists.txt (the mfdfp
library from src/ plus the benchmark program, Release) into the directory
named by $CARGO_TARGET_DIR, default .bench_build, builds it, and runs the
benchmark binary. Build output goes to stderr; the binary's report goes to
stdout, and its last line is the result JSON. A traced run (--trace 1) also
writes Chrome trace JSON to <build dir>/trace-<workload>-<seed>.json.

Exits nonzero without printing a result when the build fails, the binary
fails or times out, or its metrics are not exactly the set BENCHMARK.json
lists for the mode. METRICS.md describes the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_cifar", "interactive_mlp", "shared_pu_flood")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    trace_out = os.path.join(build_dir,
                             f"trace-{args.workload}-{args.seed}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_out]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        print(f"run.py: benchmark exited {result.returncode}", file=sys.stderr)
        return 1

    lines = result.stdout.rstrip("\n").splitlines()
    try:
        report = json.loads(lines[-1])
        names = set(report["metrics"])
        expected = expected_metrics(args.trace)
    except (IndexError, KeyError, ValueError, OSError) as e:
        sys.stderr.write(result.stdout)
        print(f"run.py: unreadable result: {e}", file=sys.stderr)
        return 1
    if names != expected:
        sys.stderr.write(result.stdout)
        print("run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - names)}, unexpected {sorted(names - expected)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
