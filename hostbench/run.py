#!/usr/bin/env python3
"""Host-time benchmark entry point.

Builds the drivers from source (CMake, Release) and runs one workload:

    python3 hostbench/run.py --workload paper_star --seed 1 --seconds 10 --trace 0

The driver's metric lines are echoed; the last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list (spans go to .bench_out/). `--self-test` builds
everything and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_star", "flood_mesh", "tcp_fleet")
DRIVER_TIMEOUT_S = 170


def build_dir():
    # CARGO_TARGET_DIR, when set, names the checkout's build area.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "hostbench")


def build(out, targets):
    """Configures once and builds; the log is shown only on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, step)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        if args.self_test:
            build(out, ["all"])
            return subprocess.run(["ctest", "--test-dir", out,
                                   "--output-on-failure"]).returncode
        build(out, WORKLOADS)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, args.workload), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: {args.workload} exceeded {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, TypeError, KeyError, AttributeError):
        print(f"hostbench: {args.workload} printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    if got != want:
        print(f"hostbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"units {sorted(k for k in want if k in got and got[k] != want[k])}",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
