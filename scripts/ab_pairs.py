#!/usr/bin/env python3
"""Runs alternating parent/change pairs of the repository benchmark.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload <name> --pairs N
        [--seconds S] [--trace 0|1] [--seed K] [--build-root DIR]

PARENT and CHANGE are two checkouts of this repository (for example the
parent commit exported with `git archive` and the working tree). Each side
builds and runs its own `perfbench/run.py` from its own root with its own
CARGO_TARGET_DIR: <build-root>/parent and <build-root>/change, or each
checkout's `.bench_build` when --build-root is not given. One warm-up run
per side, as long as a measured one (a shorter run can fail run.py's
sample-count floor), builds both binaries and is discarded. Pair i then
runs both sides with seed K+i, the parent first on even i and the change
first on odd i, so slow drift of the host cancels out.

For every metric the report prints the parent and change medians, the
change/parent ratio, the bound BENCHMARK.json gives it (end-to-end metrics
only), how many pairs the change won, and the parent's interquartile range.
A metric is flagged WORSE when its median moves the wrong way by more than
its bound. The script only reads BENCHMARK.json; it changes nothing in
either checkout besides their build directories. It exits nonzero when a run
fails or reports `correct: false` or failed requests.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
    result = subprocess.run(command, cwd=checkout, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-4000:])
        raise RuntimeError(f"{checkout}: run.py exited {result.returncode}")
    report = json.loads(result.stdout.rstrip("\n").splitlines()[-1])
    if not report.get("correct", False) or report.get("failed", 0) != 0:
        raise RuntimeError(f"{checkout}: correct={report.get('correct')} "
                           f"failed={report.get('failed')}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i uses seed+i")
    parser.add_argument("--build-root", default=None)
    args = parser.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    spec = load_spec(sides["change"])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics_spec = {m["name"]: m
                    for m in spec["per_layer" if args.trace else "end_to_end"]}
    build_dirs = {
        side: os.path.abspath(os.path.join(args.build_root, side))
        if args.build_root else os.path.join(root, ".bench_build")
        for side, root in sides.items()}

    for side, root in sides.items():
        print(f"warm-up build/run: {side} ({root})", file=sys.stderr)
        run_once(root, build_dirs[side], args.workload, args.seed, seconds,
                 args.trace)

    samples = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], build_dirs[side], args.workload,
                               args.seed + i, seconds, args.trace)
            samples[side].append(metrics)
        summary = "  ".join(
            f"{name}={samples['parent'][-1].get(name)}"
            f"->{samples['change'][-1].get(name)}"
            for name in list(metrics_spec)[:3])
        print(f"pair {i + 1}/{args.pairs}: {summary}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs, {seconds:g} s "
          f"each, trace {args.trace}")
    header = (f"{'metric':<44} {'parent':>11} {'change':>11} {'ratio':>7} "
              f"{'bound':>6} {'wins':>6} {'parent IQR':>11}")
    print(header)
    print("-" * len(header))
    worse = 0
    for name, m in metrics_spec.items():
        parent = [s[name] for s in samples["parent"] if name in s]
        change = [s[name] for s in samples["change"] if name in s]
        if not parent or not change:
            continue
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        ratio = c_med / p_med if p_med else float("nan")
        higher = m["better"] == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        bound = m.get("bound")
        flag = ""
        if bound is not None and p_med:
            if (higher and ratio < 1 - bound) or (not higher and
                                                  ratio > 1 + bound):
                flag = "  WORSE"
                worse += 1
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<44} {p_med:>11.4g} {c_med:>11.4g} {ratio:>7.3f} "
              f"{bound_text:>6} {wins:>3}/{len(parent):<2} {q3 - q1:>11.4g}"
              f"{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"ab_pairs.py: {e}", file=sys.stderr)
        sys.exit(1)
