#!/usr/bin/env python3
"""Steadiness of the SNAP benchmark: runs workloads k times, one seed each.

    python3 perfbench/steady.py [--workload NAME ...] [--runs K]
                                [--seconds T] [--trace 0|1] [--first-seed S]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and the max/min ratio, next to the metric's bound
from BENCHMARK.json. It also prints each run's share of failed operations,
which must be the same in every run. Bounds in BENCHMARK.json are set from
this output: each spread should stay below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                      done.returncode))
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metric_specs = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metric_specs}

    worst = 0.0
    for name in names:
        results = [run_once(name, args.first_seed + k, args.seconds,
                            args.trace) for k in range(args.runs)]
        shares = sorted({"%d/%d" % (r["failed"], r["attempted"])
                         for r in results})
        ratios = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, correct %s, failed/attempted %s (%s)" % (
            name, len(results), all(r["correct"] for r in results),
            " ".join(shares),
            "same share" if len(ratios) == 1 else "SHARES DIFFER"))
        print("  %-34s %12s %12s %12s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/min", "bound"))
        for metric in metric_specs:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            low = min(values)
            ratio = max(values) / low if low else float("inf")
            bound = bounds.get(metric["name"])
            if bound and metric["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %8.4f %6s" % (
                metric["name"], med, q1, q3, spread, ratio,
                "" if bound is None else "%.3g" % bound))
            if args.raw:
                print("    " + " ".join("%.5g" % v for v in values))
        sys.stdout.flush()
    if args.trace == 0:
        print("largest spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
