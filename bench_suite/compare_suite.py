#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 bench_suite/compare_suite.py BASE_DIR CHANGE_DIR

Each directory holds the captured stdout of bench_suite/run.py runs, one
file per run (the last line is the result JSON, the line before it the
"# {...}" run record naming the workload and seed). For every workload x
metric the script prints each side's median and quartiles and labels the
pair, using BENCHMARK.json's bounds:

  worse       the change's median is worse than the base's by more than the
              bound (a share of the base median)
  slower      worse by more than the base's own quartile spread but within
              the bound: a regression the bound lets through, shown so a
              reader sees it on a workload steadier than the bound assumes
  better      the change's median is better by more than the base's own
              quartile spread
  same        none of these
  unresolved  a side's quartile spread (as a share of its median) exceeds
              the bound, and not every change run beats every base run

Per-layer metrics have no bound; they are labelled against the wider of the
two quartile spreads instead. The accuracy metrics (coverage, miss_rate,
err_over_e_p50) are deterministic for a seed: a seed run on both sides with
different values is flagged, a determinism bug when both sides ran the same
code. Exits 1 when any pair is worse or flagged. Python 3 standard library
only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISTIC = ("coverage", "miss_rate", "err_over_e_p50")


def load_runs(directory):
    """{(workload, metric): {seed: value}} from a directory of run outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if len(lines) < 2 or not lines[-2].startswith("# {"):
            continue
        try:
            record = json.loads(lines[-2][2:])
            result = json.loads(lines[-1])
        except ValueError:
            continue
        for metric, v in result["metrics"].items():
            key = (record["workload"], metric)
            runs.setdefault(key, {})[record["seed"]] = v["value"]
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def fmt(values):
    return "%.5g [%.5g, %.5g]" % summary(values)


def rel_spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def label(base, change, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    c_med, c_q1, c_q3 = summary(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the change reads worse, as a share of the base median.
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spreads = max(rel_spread(b_med, b_q1, b_q3), rel_spread(c_med, c_q1, c_q3))
    if bound is None:
        if abs(worse_by) <= spreads:
            return "same"
        return "worse" if worse_by > 0 else "better"
    if spreads > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    base_spread = rel_spread(b_med, b_q1, b_q3)
    if worse_by > base_spread:
        return "slower"
    if -worse_by > base_spread:
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(
        description="Compare two directories of bench_suite/run.py outputs.")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base, change = load_runs(args.base), load_runs(args.change)
    if not base or not change:
        print("no runs found in %s" % (args.base if not base else args.change))
        return 2
    status = 0
    print("%-15s %-30s %-34s %-34s %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "label"))
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        if metric not in spec:
            continue
        b, c = base[key], change[key]
        verdict = label(list(b.values()), list(c.values()),
                        spec[metric]["better"], spec[metric].get("bound"))
        if metric in DETERMINISTIC:
            differing = [s for s in set(b) & set(c) if b[s] != c[s]]
            if differing:
                verdict += " determinism? (seeds %s differ)" % sorted(
                    differing)
                status = 1
        if verdict.startswith("worse"):
            status = 1
        print("%-15s %-30s %-34s %-34s %s" % (
            workload, metric, fmt(list(b.values())), fmt(list(c.values())),
            verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
