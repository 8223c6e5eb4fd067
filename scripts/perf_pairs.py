#!/usr/bin/env python3
"""Compares interleaved parent/change runs of perfbench/run.py.

    python3 scripts/perf_pairs.py --parent p1.out p2.out ... \\
                                  --change c1.out c2.out ...

Each file is the standard output of one `perfbench/run.py --trace 0` run:
its `workload <name> seed <n>: ... (<x>% CPU steal)` header line and, as
its last line, the JSON result. Runs are grouped by workload and paired
in the order given (the i-th parent run of a workload with its i-th change
run), so pass them in the order they were interleaved.

For each workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side), and a verdict:

  gain           the change won at least 9 of 10 pairs and its median is
                 better than the parent's by more than the parent's
                 interquartile range;
  worse          the change's median is worse than the parent's by more
                 than the metric's bound;
  unresolved     either side's interquartile range exceeds the bound
                 (relative to its median), unless every change run beat
                 every parent run;
  within bound   otherwise.

Only reads its inputs and BENCHMARK.json.
"""
import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = re.compile(r"^workload (\S+) seed (\d+):.*\(([\d.]+)% CPU steal\)")


def load_run(path):
    """Returns (workload, seed, steal_percent, result dict) of one run."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    workload, seed, steal = None, None, float("nan")
    for ln in lines:
        m = HEADER.match(ln)
        if m:
            workload, seed, steal = m.group(1), int(m.group(2)), float(m.group(3))
            break
    if workload is None or not lines:
        raise SystemExit("%s: no run.py header line" % path)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise SystemExit("%s: last line is not the JSON result" % path)
    return workload, seed, steal, result


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, lower_better, bound):
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    if pairs and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1:
        return wins, pairs, "gain"
    worse = sign * (cm - pm) / pm if pm else (0.0 if cm == pm else 1.0)
    if worse > bound:
        return wins, pairs, "worse"
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = (max(change) < min(parent) if lower_better
                  else min(change) > max(parent))
    if spread > bound and not all_better:
        return wins, pairs, "unresolved"
    return wins, pairs, "within bound"


def group(paths):
    runs = {}
    for path in paths:
        workload, seed, steal, result = load_run(path)
        runs.setdefault(workload, []).append((path, seed, steal, result))
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = group(args.parent), group(args.change)

    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent and workload not in change:
            continue
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print("%s: runs on one side only; skipped" % workload)
            continue
        print("%s: %d parent / %d change runs, seeds %s" %
              (workload, len(p_runs), len(c_runs),
               sorted({r[1] for r in p_runs + c_runs})))
        for side, rs in (("parent", p_runs), ("change", c_runs)):
            print("  %s CPU steal %%: %s; correct: %s; failed ops: %s" %
                  (side, " ".join("%.1f" % r[2] for r in rs),
                   all(r[3]["correct"] for r in rs),
                   sum(r[3]["failed"] for r in rs)))
        print("  %-18s %-34s %-34s %6s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "wins", "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[3]["metrics"][name]["value"] for r in p_runs]
            c = [r[3]["metrics"][name]["value"] for r in c_runs]
            lower = m["better"] == "lower"
            wins, pairs, v = verdict(p, c, lower, m["bound"])
            if v == "worse":
                worst = 1
            pq, cq = quartiles(p), quartiles(c)
            print("  %-18s %-34s %-34s %6s  %s" %
                  (name, "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                   "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                   "%d/%d" % (wins, pairs), v))
    return worst


if __name__ == "__main__":
    sys.exit(main())
