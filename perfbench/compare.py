#!/usr/bin/env python3
"""Runs a workload k times and checks two sets of runs against the bounds.

Run a set (seeds SEED..SEED+k-1), print each metric's median and quartiles,
and optionally save the runs:

    python3 perfbench/compare.py run --workload serve-heart --runs 10 \
        [--seed 1] [--trace 0] [--seconds S] [--out set-a.json]

Check two saved sets of the same workload against BENCHMARK.json:

    python3 perfbench/compare.py check set-a.json set-b.json

`check` fails (exit 1) when a set's spread of an end-to-end metric, the
distance between its first and third quartile over its median, exceeds the
metric's bound (setup_s is exempt); when the second set's median is worse
than the first's by more than the bound (setup_s included); or when the
share of failed operations differs between the sets. `run` exits 1 when a
run fails or reports incorrect outputs. Quartiles are Python's
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    """(median, q1, q3, spread share) of a list of numbers."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def metric_values(runs):
    names = list(runs[0]["metrics"])
    return {n: [r["metrics"][n]["value"] for r in runs] for n in names}


def failed_share(runs):
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def cmd_run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for k in range(args.runs):
        seed = args.seed + k
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", file=sys.stderr)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    units = {n: runs[0]["metrics"][n]["unit"] for n in runs[0]["metrics"]}
    print(f"{args.workload}, {len(runs)} runs of {seconds} s, trace "
          f"{args.trace}")
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  unit")
    for name, values in metric_values(runs).items():
        median, q1, q3, spread = summarize(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  (> bound/3)"
        print(f"{name:38} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6}  "
              f"{units[name]}{flag}")
    failed, attempted = failed_share(runs)
    print(f"failed {failed} of {attempted} attempted")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs}, f, indent=1)
    return 0


def cmd_check(args):
    bench = load_benchmark()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["workload"] != sets[1]["workload"]:
        print("the two sets ran different workloads", file=sys.stderr)
        return 1
    problems = []
    values = [metric_values(s["runs"]) for s in sets]
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in values[0] or name not in values[1]:
            problems.append(f"{name}: missing from a set")
            continue
        first, second = summarize(values[0][name]), summarize(values[1][name])
        for label, summary in (("first", first), ("second", second)):
            if name != "setup_s" and summary[3] > bound:
                problems.append(f"{name}: {label} set spread "
                                f"{summary[3]:.3f} exceeds bound {bound}")
        if metric["better"] == "lower":
            worse = (second[0] - first[0]) / first[0]
        else:
            worse = (first[0] - second[0]) / first[0]
        status = "ok"
        if worse > bound:
            status = "WORSE"
            problems.append(f"{name}: second median worse by {worse:.3f} "
                            f"(bound {bound})")
        print(f"{name:24} {first[0]:12.5g} -> {second[0]:12.5g} "
              f"({worse:+.3f} worse, bound {bound}) {status}")
    shares = [failed_share(s["runs"]) for s in sets]
    if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
        problems.append(f"failed share differs: {shares[0]} vs {shares[1]}")
    for p in problems:
        print("DISAGREE: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="Run a workload k times; check two sets of runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out")
    check = sub.add_parser("check")
    check.add_argument("first")
    check.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
