#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

Usage: compare.py A_DIR B_DIR [--claim METRIC@WORKLOAD ...]

A_DIR holds the reference runs (the parent commit), B_DIR the change's:
the untraced run records axipack_bench writes with --out (run.py keeps
them in .bench_build/runs/). For every end-to-end metric of every workload it
prints each side's median and quartiles and the ratio B/A with its base,
and gives a verdict:

  identical   every run of B equals the run of A at the same seed;
  ok          no worsening past the bound (see below);
  REGRESSION  a worsening past the bound;
  unresolved  a host metric whose spread (IQR / median) on either side
              exceeds its bound while not every run of B beats every run
              of A, or a modelled metric with no seed in common.

Modelled metrics (simulated cycles, bus utilisation) are exact at a seed, so
they are compared seed by seed and any seed on which B is worse is a
regression. Host metrics (seconds, memory) compare B's median with A's
against the bound in BENCHMARK.json.

A claim METRIC@WORKLOAD holds when B beats A in at least 9 of every 10
seed-paired runs (ties count for neither) and the medians differ, in B's
favour, by more than A's IQR. A gain does not count when B failed more
operations than A. Exits 1 on a regression or a claim not met.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "BENCHMARK.json")
MODELLED = ("pack_cycles", "base_cycles", "r_util")


def load(directory):
    """{workload: {seed: record}} of the untraced run records in `directory`
    (end-to-end numbers are measured with tracing off)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if "end_to_end" in rec and rec.get("traced_repeats") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def summary(values):
    """(median, q1, q3) of `values`."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def values(runs, section, name):
    return {seed: rec[section][name]["value"] for seed, rec in runs.items()
            if name in rec[section]}


def better(a, b, lower):
    """True when b is strictly better than a."""
    return b < a if lower else b > a


def fmt(med, q1, q3, n):
    return "%.6g [%.6g, %.6g] n=%d" % (med, q1, q3, n)


def compare_modelled(a_vals, b_vals, lower):
    """Seed-paired verdict of a modelled metric: any worse seed regresses."""
    pairs = sorted(set(a_vals) & set(b_vals))
    if not pairs:
        return "unresolved (no seed in common)"
    worse = sum(better(b_vals[s], a_vals[s], lower) for s in pairs)
    change = statistics.median(b_vals[s] / a_vals[s] - 1 if a_vals[s] else 0.0
                               for s in pairs)
    detail = "(%d of %d seeds worse, median paired B/A-1 %+.4f)" % (
        worse, len(pairs), change)
    return ("REGRESSION " if worse else "ok ") + detail


def compare_host(a_vals, b_vals, lower, bound):
    """Verdict of a host metric: B's median against A's, within the bound."""
    a_med = statistics.median(a_vals.values())
    b_med = statistics.median(b_vals.values())
    worse = (b_med - a_med) if lower else (a_med - b_med)
    worse_frac = worse / abs(a_med) if a_med else 0.0
    all_better = all(better(a, b, lower)
                     for a in a_vals.values() for b in b_vals.values())
    if max(spread(list(a_vals.values())),
           spread(list(b_vals.values()))) > bound:
        return "better (every run)" if all_better else "unresolved"
    return "REGRESSION" if worse_frac > bound else "ok"


def compare_metric(name, a_vals, b_vals, lower, bound):
    """Verdict of one end-to-end metric on one workload."""
    if set(a_vals) == set(b_vals) and all(a_vals[s] == b_vals[s]
                                          for s in a_vals):
        return "identical"
    if name in MODELLED:
        return compare_modelled(a_vals, b_vals, lower)
    return compare_host(a_vals, b_vals, lower, bound)


def check_claim(claim, a_runs, b_runs, lower_of):
    metric, _, workload = claim.partition("@")
    if workload not in a_runs or workload not in b_runs:
        print("claim %s: workload missing on one side" % claim)
        return False
    section = "end_to_end" if metric in lower_of["end_to_end"] else "per_layer"
    lower = lower_of[section].get(metric)
    if lower is None:
        print("claim %s: unknown metric" % claim)
        return False
    a_vals = values(a_runs[workload], section, metric)
    b_vals = values(b_runs[workload], section, metric)
    pairs = sorted(set(a_vals) & set(b_vals))
    wins = sum(better(a_vals[s], b_vals[s], lower) for s in pairs)
    ties = sum(a_vals[s] == b_vals[s] for s in pairs)
    a_med, a_q1, a_q3 = summary(list(a_vals.values()))
    b_med = statistics.median(b_vals.values())
    margin = (a_med - b_med) if lower else (b_med - a_med)
    a_failed = sum(r["failed"] for r in a_runs[workload].values())
    b_failed = sum(r["failed"] for r in b_runs[workload].values())
    holds = (len(pairs) > 0 and wins * 10 >= 9 * len(pairs)
             and margin > a_q3 - a_q1 and b_failed <= a_failed)
    print("claim %s: B wins %d of %d seed pairs (%d ties); median %.6g -> "
          "%.6g, B/A = %.4f (base A median %.6g), A IQR %.6g, failed ops "
          "%d -> %d: %s" % (claim, wins, len(pairs), ties, a_med, b_med,
                            b_med / a_med if a_med else float("nan"), a_med,
                            a_q3 - a_q1, a_failed, b_failed,
                            "HOLDS" if holds else "NOT MET"))
    return holds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_dir")
    ap.add_argument("b_dir")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD")
    args = ap.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    lower_of = {s: {m["name"]: m["better"] == "lower" for m in spec[s]}
                for s in ("end_to_end", "per_layer")}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a_runs, b_runs = load(args.a_dir), load(args.b_dir)

    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in a_runs or w not in b_runs:
            print("%s: no runs on %s side" % (w, "A" if w not in a_runs
                                               else "B"))
            continue
        print("== %s (A %d runs, B %d runs)" % (w, len(a_runs[w]),
                                               len(b_runs[w])))
        for name, bound in bounds.items():
            a_vals = values(a_runs[w], "end_to_end", name)
            b_vals = values(b_runs[w], "end_to_end", name)
            if not a_vals or not b_vals:
                continue
            a_sum = summary(list(a_vals.values()))
            b_sum = summary(list(b_vals.values()))
            verdict = compare_metric(name, a_vals, b_vals,
                                     lower_of["end_to_end"][name], bound)
            ok = ok and not verdict.startswith("REGRESSION")
            ratio = b_sum[0] / a_sum[0] if a_sum[0] else float("nan")
            print("  %-12s A %-40s B %-40s B/A %.4f (base %.6g) %s" % (
                name, fmt(*a_sum, len(a_vals)), fmt(*b_sum, len(b_vals)),
                ratio, a_sum[0], verdict))
    for claim in args.claim:
        ok = check_claim(claim, a_runs, b_runs, lower_of) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
