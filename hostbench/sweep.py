#!/usr/bin/env python3
"""Runs every workload over several seeds and prints one trajectory row each.

    python3 hostbench/sweep.py --label seed >> hostbench/trajectory.ndjson

For each workload: one untraced run on each of the fixed SEEDS (end-to-end
medians and quartiles, plus the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against), then one traced run on the
first seed for the per-layer numbers. Every row uses the same seeds, so
rows compare seed for seed. Runs are sequential, so no two measure at
once. The spread table goes to standard error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_star", "flood_mesh", "tcp_fleet")
SEEDS = tuple(range(601, 611))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"sweep: {workload} seed {seed} failed its oracle")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="",
                        help="free text naming the measured program state")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    machine = {"cpus": os.cpu_count(), "cpu": cpu_model()}
    git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    commit = git.stdout.strip() if git.returncode == 0 else "unknown"

    for workload in WORKLOADS:
        values, units = {}, {}
        for seed in SEEDS:
            for name, m in run(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        end_to_end = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "unit": units[name]}
            print(f"{workload:10s} {name:22s} median {med:12.4f} "
                  f"spread {spread:6.1%} (bound {bounds[name]:.0%})",
                  file=sys.stderr)
        traced = run(workload, SEEDS[0], seconds, 1)["metrics"]
        row = {"label": args.label, "commit": commit, "workload": workload,
               "seeds": list(SEEDS), "run_seconds": seconds, "machine": machine,
               "end_to_end": end_to_end,
               "per_layer": {n: {"value": m["value"], "unit": m["unit"]}
                             for n, m in traced.items()}}
        print(json.dumps(row, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
