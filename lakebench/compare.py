#!/usr/bin/env python3
"""Compare two sets of lakebench runs (parent and change).

    python3 lakebench/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds the saved stdout of untraced runs (`run.py ...
--trace 0 > DIR/<anything>.out`); a file's "meta" line names its workload
and seed, and its last JSON line is the result. For every workload and
every end-to-end metric of BENCHMARK.json this prints one row:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side) and the medians differ, in the better
              direction, by more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more
              than the metric's bound (a share of the parent's median)
  unresolved  neither, and the parent's quartile spread, as a share of
              its median, is wider than the bound, unless every change
              run is better than every parent run
  unchanged   otherwise

and one "failed" row per workload: the share of attempted requests that
failed, summed over all runs of a side. It reads regressed when the
change's share is above the parent's, so a change cannot come out
unchanged or improved while more of its requests fail.

Comparing a directory with itself prints each metric's quartile spread
over its runs, as a share of the median (the "spread" column).

Pairs match runs of the same seed when both sides ran the same seeds,
else runs in seed order. Exits 1 when any row regressed or either side
has an incorrect run, 2 on unusable input, else 0.
"""

import argparse
import json
import math
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(directory):
    """{workload: [(seed, result)]} for every untraced run in directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        if not path.is_file():
            continue
        meta = result = None
        for line in path.read_text(errors="replace").splitlines():
            if line.startswith("meta "):
                meta = json.loads(line[5:])
            elif line.startswith("{") and '"metrics"' in line:
                result = json.loads(line)
        if meta is None or result is None or meta.get("trace"):
            continue
        runs.setdefault(meta["workload"], []).append((meta["seed"], result))
    for entries in runs.values():
        entries.sort(key=lambda e: e[0])
    return runs


def pairs(parent, change):
    """Paired (parent, change) results: by seed when the seed sets match."""
    if [s for s, _ in parent] == [s for s, _ in change]:
        return [(p, c) for (_, p), (_, c) in zip(parent, change)]
    n = min(len(parent), len(change))
    return [(parent[i][1], change[i][1]) for i in range(n)]


def failed_share(entries):
    """Failed over attempted requests, summed over every run given."""
    attempted = sum(r["attempted"] for _, r in entries)
    return sum(r["failed"] for _, r in entries) / attempted if attempted else 0.0


def quartile_spread(values):
    if len(values) < 2:
        return math.inf
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def decide(parent_values, change_values, better, bound):
    """Verdict for one metric on one workload; returns (verdict, detail)."""
    n = min(len(parent_values), len(change_values))
    if n == 0:
        return "unresolved", {"reason": "no runs"}
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) < 0: c better
    p_med = statistics.median(parent_values)
    c_med = statistics.median(change_values)
    iqr = quartile_spread(parent_values)
    spread = iqr / abs(p_med) if p_med else math.inf
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else math.inf
    wins = sum(1 for p, c in zip(parent_values, change_values)
               if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0
                     for c in change_values for p in parent_values)
    detail = {"parent_median": p_med, "change_median": c_med,
              "parent_spread": spread, "worse_by": worse, "wins": wins,
              "pairs": n}
    if worse > bound:
        return "regressed", detail
    if wins >= math.ceil(0.9 * n) and -sign * (c_med - p_med) > iqr:
        return "improved", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    metrics = json.loads(pathlib.Path(args.bench).read_text())["end_to_end"]
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    if not parent or not change:
        print("compare: no untraced runs found", file=sys.stderr)
        return 2

    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for workload, entries in runs.items():
            bad = [seed for seed, r in entries if not r["correct"]]
            if bad:
                print("%s %s: incorrect runs at seeds %s" % (side, workload,
                                                             bad))
                status = 1

    print("%-18s %-16s %-11s %12s %12s %8s %8s %6s" %
          ("workload", "metric", "verdict", "parent", "change", "spread",
           "worse", "wins"))
    for workload in sorted(set(parent) & set(change)):
        paired = pairs(parent[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            pv = [p["metrics"][name]["value"] for p, _ in paired
                  if name in p["metrics"]]
            cv = [c["metrics"][name]["value"] for _, c in paired
                  if name in c["metrics"]]
            verdict, d = decide(pv, cv, metric["better"], metric["bound"])
            if verdict == "regressed":
                status = 1
            if "parent_median" not in d:
                print("%-18s %-16s %-11s" % (workload, name, verdict))
                continue
            print("%-18s %-16s %-11s %12.5g %12.5g %7.1f%% %7.1f%% %3d/%-3d" %
                  (workload, name, verdict, d["parent_median"],
                   d["change_median"], 100 * d["parent_spread"],
                   100 * d["worse_by"], d["wins"], d["pairs"]))
        p_share = failed_share(parent[workload])
        c_share = failed_share(change[workload])
        verdict = "regressed" if c_share > p_share else "unchanged"
        if verdict == "regressed":
            status = 1
        print("%-18s %-16s %-11s %12.5g %12.5g" %
              (workload, "failed", verdict, p_share, c_share))
    return status


if __name__ == "__main__":
    sys.exit(main())
