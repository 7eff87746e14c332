#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload repeatedly and summarise.

From the root of a checkout:

    python3 perfbench/steady.py --workload lookup --runs 10 --seconds 20 \
        --first-seed 1 --save lookup-a.json
    python3 perfbench/steady.py --compare lookup-a.json lookup-b.json

A set of runs uses seeds first-seed, first-seed+1, ...  For each metric it
prints the median, the quartiles (statistics.quantiles, n=4), min and max,
and the spread: the interquartile distance as a share of the median,
beside the metric's bound from BENCHMARK.json.  --compare takes two saved
sets of runs of the same code and prints, per metric, how far the second
median is from the first in the worse direction, against the bound, and
whether the share of failed operations agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    return b, metrics


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(runs, metrics):
    print("%-36s %12s %12s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = metrics.get(name, {}).get("bound")
        print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, med, q1, q3, min(vals), max(vals), spread,
               "" if bound is None else bound))
    att = sum(r["attempted"] for r in runs)
    fail = sum(r["failed"] for r in runs)
    print("runs %d  correct %s  attempted %d  failed %d  failed share %s" %
          (len(runs), all(r["correct"] for r in runs), att, fail,
           [r["failed"] / r["attempted"] for r in runs]))


def compare(a, b, metrics):
    print("%-36s %12s %12s %10s %6s %s" % ("metric", "median a", "median b", "worse by", "bound", "verdict"))
    for name in a[0]["metrics"]:
        ma = statistics.median(r["metrics"][name]["value"] for r in a)
        mb = statistics.median(r["metrics"][name]["value"] for r in b)
        m = metrics.get(name, {})
        sign = 1 if m.get("better") == "lower" else -1
        worse = sign * (mb - ma) / ma if ma else 0.0
        bound = m.get("bound")
        verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE")
        print("%-36s %12.6g %12.6g %10.4f %6s %s" % (name, ma, mb, worse, "" if bound is None else bound, verdict))
    share = lambda runs: sorted(r["failed"] / r["attempted"] for r in runs)
    print("failed share a %s  b %s  %s" % (share(a), share(b),
          "same" if set(share(a)) == set(share(b)) else "DIFFERENT"))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    b, metrics = spec()
    if args.compare:
        runs = []
        for path in args.compare:
            with open(path) as f:
                runs.append(json.load(f))
        compare(runs[0], runs[1], metrics)
        return 0
    if not args.workload:
        p.error("--workload or --compare is required")
    seconds = args.seconds or b["run_seconds"]
    runs = []
    for i in range(args.runs):
        r = run_once(args.workload, args.first_seed + i, seconds, args.trace)
        print("seed %d: %s" % (args.first_seed + i, json.dumps(r)), file=sys.stderr)
        runs.append(r)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    summarise(runs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
