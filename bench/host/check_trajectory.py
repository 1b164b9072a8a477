#!/usr/bin/env python3
"""Checks the structure of bench/host/trajectory.ndjson, never its values.

    python3 bench/host/check_trajectory.py

Every line must parse as one JSON object with the row keys pairs.py
writes, name a workload BENCHMARK.json declares, and give a median and
both quartiles for end-to-end metrics BENCHMARK.json declares. Host
numbers vary from machine to machine, so nothing compares them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ROW_KEYS = {"sha", "label", "workload", "nproc", "cpu", "seeds", "pairs",
            "run_seconds", "end_to_end"}
STAT_KEYS = {"median", "q1", "q3", "unit"}


def row_errors(row, workloads, metrics):
    if not isinstance(row, dict):
        return ["not a JSON object"]
    errors = [f"missing key {k}" for k in sorted(ROW_KEYS - set(row))]
    if row.get("workload") not in workloads:
        errors.append(f"unknown workload {row.get('workload')!r}")
    end_to_end = row.get("end_to_end")
    if not isinstance(end_to_end, dict) or not end_to_end:
        return errors + ["end_to_end is not a non-empty object"]
    for name, stats in end_to_end.items():
        if name not in metrics:
            errors.append(f"unknown metric {name!r}")
        elif not isinstance(stats, dict) or STAT_KEYS - set(stats):
            errors.append(f"{name} lacks one of {sorted(STAT_KEYS)}")
        elif stats["unit"] != metrics[name] or not all(
                isinstance(stats[k], (int, float)) for k in
                ("median", "q1", "q3")):
            errors.append(f"{name} has a wrong unit or a non-number")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    path = os.path.join(HERE, "trajectory.ndjson")
    failed = False
    rows = 0
    with open(path) as f:
        for number, line in enumerate(f, 1):
            try:
                errors = row_errors(json.loads(line), workloads, metrics)
            except ValueError as e:
                errors = [f"does not parse: {e}"]
            for error in errors:
                print(f"{path}:{number}: {error}", file=sys.stderr)
            failed |= bool(errors)
            rows += 1
    if rows == 0:
        print(f"{path}: no rows", file=sys.stderr)
        failed = True
    if not failed:
        print(f"OK: {rows} trajectory rows")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
