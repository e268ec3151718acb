#!/usr/bin/env python3
"""Compare two sets of xbench result files: a parent commit's and a change's.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result directories (or single result files) written
by bench/e2e/xbench.exe.  For every metric and workload present on both
sides it prints each side's median and quartiles and a verdict:

  improved    the change wins at least 9/10 of the pairs (runs paired in
              start order; ties count for neither side) and the medians
              differ by more than the parent's interquartile range;
  no worse    the change's median is within the metric's bound of the
              parent's (end-to-end metrics only; per-layer metrics have no
              bound and read "no change" instead);
  worse       beyond the bound;
  unresolved  either side's spread (interquartile range / median) is wider
              than the bound, unless every change run beats every parent run.

No verdict reads "improved" on a workload where the change failed more
operations (errors, refusals, timeouts) than the parent; that workload's
"failed ops" row then reads "worse".  Files made on machines with a
different nproc are not paired.  Exit status is 1 when any end-to-end
metric or failed-ops row is worse or unresolved, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(path):
    files = (
        sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    )
    runs = []
    for f in files:
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            r = json.load(fh)
        if r.get("schema") != "xbench-result/1":
            continue
        runs.append(r)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound, more_failures):
    sign = 1.0 if better == "higher" else -1.0
    _, pmed, _ = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pq1, _, pq3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = sign * (cmed - pmed)
    if pairs and wins >= 0.9 * len(pairs) and gap > (pq3 - pq1) and not more_failures:
        return "improved"
    if bound is None:
        cq1, _, cq3 = quartiles(change)
        if pairs and losses >= 0.9 * len(pairs) and -gap > (cq3 - cq1):
            return "changed (worse)"
        return "no change"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    worse_by = -gap / abs(pmed) if pmed else 0.0
    return "no worse" if worse_by <= bound else "worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("compare.py: no result files on one side")
    nprocs = {r["provenance"]["nproc"] for r in parent + change}
    if len(nprocs) > 1:
        sys.exit("compare.py: refusing to pair runs from machines with nproc %s" % sorted(nprocs))
    catalogue = [(m, True) for m in bench["end_to_end"]] + [
        (m, False) for m in bench["per_layer"]
    ]
    failing = 0
    print(
        "%-11s %-30s %-9s %30s %30s %8s  %s"
        % ("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
           "delta", "verdict")
    )
    workloads = [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        p_runs = sorted((r for r in parent if r["workload"] == wl), key=lambda r: r["started_unix"])
        c_runs = sorted((r for r in change if r["workload"] == wl), key=lambda r: r["started_unix"])
        if not p_runs or not c_runs:
            continue
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        more_failures = c_failed > p_failed
        if more_failures:
            failing += 1
        print(
            "%-11s %-30s %-9s %30s %30s %8s  %s"
            % (wl, "failed ops", "count", "%d in %d runs" % (p_failed, len(p_runs)),
               "%d in %d runs" % (c_failed, len(c_runs)), "",
               "worse" if more_failures else "no worse")
        )
        for m, e2e in catalogue:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs if m["name"] in r["metrics"]]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs if m["name"] in r["metrics"]]
            if not p or not c:
                continue
            v = verdict(p, c, m["better"], m["bound"] if e2e else None, more_failures)
            if e2e and v in ("worse", "unresolved"):
                failing += 1
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
            print(
                "%-11s %-30s %-9s %30s %30s %7.1f%%  %s"
                % (wl, m["name"], m["unit"],
                   "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                   "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]), delta, v)
            )
    print("\n%d parent runs, %d change runs" % (len(parent), len(change)))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
