#!/usr/bin/env python3
"""Measures a change against its parent in alternating hostbench pairs.

    python3 bench/host/pairs.py --parent /tmp/parent --change . \\
        --workload tcp_fleet --seeds 601-610 --label "what changed" \\
        >> bench/host/trajectory.ndjson

Each checkout builds and runs its own hostbench/run.py (untraced, at
BENCHMARK.json's run_seconds), one seed per pair, the two trees taking
turns at going first. Standard output gets two trajectory rows, parent
then change; standard error gets each pair's query_ms_p50 and a
per-metric summary. Host time is only as good as the quiet around it:
run nothing else meanwhile.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=checkout)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"pairs: {checkout} {workload} seed {seed} failed")
    return result["metrics"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="601-610", help="first-last")
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    seeds = seed_list(args.seeds)
    trees = {"parent": args.parent, "change": args.change}

    values = {tree: {} for tree in trees}
    units = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for tree in order:
            for name, m in run(trees[tree], args.workload, seed,
                               seconds).items():
                values[tree].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"seed {seed}: query_ms_p50 parent "
              f"{values['parent']['query_ms_p50'][-1]:.2f} change "
              f"{values['change']['query_ms_p50'][-1]:.2f}", file=sys.stderr)

    machine = {"nproc": os.cpu_count(), "cpu": cpu_model()}
    for tree, checkout in trees.items():
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=checkout, stdout=subprocess.PIPE,
                             text=True).stdout.strip()
        end_to_end = {}
        for name, vals in values[tree].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": statistics.median(vals), "q1": q1,
                                "q3": q3, "unit": units[name]}
        row = {"sha": sha, "label": f"{args.label} ({tree})",
               "workload": args.workload, **machine, "seeds": seeds,
               "pairs": len(seeds), "run_seconds": seconds,
               "end_to_end": end_to_end}
        print(json.dumps(row, sort_keys=True), flush=True)

    wins = sum(c < p for p, c in zip(values["parent"]["query_ms_p50"],
                                     values["change"]["query_ms_p50"]))
    for name in values["parent"]:
        p = statistics.median(values["parent"][name])
        c = statistics.median(values["change"][name])
        print(f"{name:22s} {p:12.4f} -> {c:12.4f} "
              f"({(c - p) / p if p else 0:+.1%})", file=sys.stderr)
    print(f"query_ms_p50: change faster in {wins} of {len(seeds)} pairs",
          file=sys.stderr)


if __name__ == "__main__":
    main()
