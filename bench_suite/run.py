#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

From the repository root:

    python3 bench_suite/run.py --workload avg_dram --seed 1 \
        --seconds 25 --trace 0

The first run builds the library (the repository's own CMake build, target
`isla`) and the bench_suite binary into .bench_build/. Every run then
executes bench_suite for one workload, echoes its metric lines, and prints as
the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes a Chrome trace to
.bench_build/trace/). Exits non-zero without a result when the build fails
or bench_suite crashes; a wrong answer is reported as "correct": false.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "isla")
SUITE_BUILD = os.path.join(BUILD, "suite")
BINARY = os.path.join(SUITE_BUILD, "bench_suite")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds libisla and bench_suite; concurrent runs share one build."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", LIB_BUILD, "--target", "isla",
                  "-j", jobs])
    if not os.path.exists(os.path.join(SUITE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", SUITE_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DISLA_BUILD_DIR=" + LIB_BUILD])
    steps.append(["cmake", "--build", SUITE_BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return True


def parse_lines(workload, text):
    """({metric: (value, unit)}, machine record) from bench_suite's output."""
    values, machine = {}, None
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) < 3 or parts[0] != workload:
            continue
        if parts[1] == "machine":
            machine = json.loads(parts[2])
            continue
        fields = parts[2].split(" ")
        if len(fields) != 2:
            continue
        try:
            values[parts[1]] = (float(fields[0]), fields[1])
        except ValueError:
            continue
    return values, machine


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        log("--seed must be >= 0 and --seconds in [1, 600]")
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--data-dir", os.path.join(BUILD, "data")]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        cmd += ["--trace", os.path.join(
            BUILD, "trace", "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_suite did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        log("bench_suite exited with status %d" % proc.returncode)
        return 1

    values, machine = parse_lines(args.workload, proc.stdout)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log("bench_suite printed no value for " + m["name"])
            return 1
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            log("unit mismatch for %s: %s vs %s" %
                (m["name"], unit, m["unit"]))
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
    if "attempted" not in values or "failed" not in values:
        log("bench_suite printed no statement counts")
        return 1
    attempted = int(values["attempted"][0])
    if attempted < 1:
        log("bench_suite attempted no statements")
        return 1
    correct = (proc.returncode == 0 and
               values.get("hard_check_failures", (1, ""))[0] == 0)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "machine": machine}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": int(values["failed"][0]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
