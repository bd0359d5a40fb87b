#!/usr/bin/env python3
"""Validates the JSON artifacts the bench binaries emit.

Checks every experiment grid in a bench binary's --json file:
  * every experiment carries a name, a non-empty axes list and points;
  * every point's coords object has exactly one entry per declared axis,
    and its label is one of the axis's declared values;
  * every point embeds a "run" object with the RunResult core fields;
  * every point that ran verified, except in a fault sweep, where an
    incorrect point must record its failed ops;
  * the coalescer, channel, open-loop and fault sweeps are self-consistent.

Bench files carry {"bench", "quick", "experiments"}.

Usage: check_bench_json.py FILE.json [FILE.json ...]
Exits non-zero on the first malformed artifact.
"""
import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


RUN_FIELDS = {"cycles", "r_util", "correct", "row_hit_ratio",
              "coalesce_merged", "coalesce_unique", "coalesce_peak_pending",
              "coalesce_row_groups",
              "faults_injected", "faults_corrected", "faults_uncorrectable",
              "retries", "retry_timeouts", "failed_ops", "degraded",
              "latency_p50", "latency_p95", "latency_p99", "latency_max",
              "latency_count", "offered_rate", "achieved_rate", "queue_peak"}


def check_experiments(path, experiments, quick):
    if not isinstance(experiments, list):
        fail(path, '"experiments" is not a list')
    for exp in experiments:
        name = exp.get("experiment")
        if not name:
            fail(path, "experiment without a name")
        axes = exp.get("axes")
        if not axes:
            fail(path, f"{name}: no axes")
        axis_values = {}
        for axis in axes:
            if not axis.get("name") or not axis.get("values"):
                fail(path, f"{name}: malformed axis {axis!r}")
            axis_values[axis["name"]] = set(axis["values"])
        points = exp.get("points")
        if points is None:
            fail(path, f"{name}: no points list")
        if not points:
            # --filter can legitimately empty a grid, but an unfiltered
            # smoke run must produce points.
            fail(path, f"{name}: empty points list")
        for point in points:
            coords = point.get("coords")
            if coords is None:
                fail(path, f"{name}: point without coords")
            if set(coords) != set(axis_values):
                fail(path,
                     f"{name}: coords keys {sorted(coords)} != axes "
                     f"{sorted(axis_values)}")
            for axis, label in coords.items():
                if label not in axis_values[axis]:
                    fail(path,
                         f"{name}: coord {axis}={label!r} not a declared "
                         f"axis value")
            run = point.get("run")
            if not isinstance(run, dict) or not RUN_FIELDS <= set(run):
                fail(path, f"{name}: point run object missing core fields")
            # Only injected faults may cost a run its data, and then the
            # lost ops are on record.
            if not run["correct"]:
                if "fault" not in axis_values:
                    if run["cycles"] > 0:
                        fail(path, f"{name}: point {coords} failed "
                                   f"verification")
                elif run["failed_ops"] == 0:
                    fail(path, f"{name}: fault point {coords} is incorrect "
                               f"but records no failed ops")
        # The coalescer sweep must actually exercise the unit: every point
        # off the baseline carries coalescer activity, the baseline none.
        if "coalesce" in axis_values:
            for point in points:
                run = point["run"]
                if point["coords"]["coalesce"] == "off":
                    if run["coalesce_unique"] != 0:
                        fail(path, f"{name}: baseline point reports "
                                   f"coalescer activity")
                elif run["coalesce_unique"] == 0:
                    fail(path,
                         f"{name}: coalesced point "
                         f"{point['coords']} saw no coalescer traffic")
        # The channel-scaling sweep must actually scale: every point
        # carries the aggregate and per-channel utilization metrics plus
        # the recorded knee, and along each fixed (masters, mapping)
        # curve the aggregate R-util grows monotonically (2% tolerance)
        # with the channel count up to that knee. (The open-loop latency
        # sweep also crosses channels but sweeps rate — it gets its own
        # shape check below.)
        if "channels" in axis_values and "rate" not in axis_values:
            curves = {}
            for point in points:
                metrics = point.get("metrics") or {}
                for field in ("agg_r_util", "min_ch_r_util",
                              "max_ch_r_util", "knee_channels"):
                    if field not in metrics:
                        fail(path, f"{name}: channel point "
                                   f"{point['coords']} missing metric "
                                   f"{field!r}")
                key = tuple(sorted((a, l)
                                   for a, l in point["coords"].items()
                                   if a != "channels"))
                curves.setdefault(key, []).append(
                    (int(point["coords"]["channels"]),
                     metrics["agg_r_util"], metrics["knee_channels"]))
            for key, series in curves.items():
                series.sort()
                knee = series[0][2]
                prev = None
                for ch, util, _ in series:
                    if ch > knee:
                        break
                    if prev is not None and util < prev * 0.98:
                        fail(path, f"{name}: aggregate R-util not "
                                   f"monotone up to the knee for "
                                   f"{dict(key)}: {util:.3f} at {ch} "
                                   f"channels < {prev:.3f}")
                    prev = util
        # The open-loop latency sweep must be self-consistent: every point
        # carries the latency/rate metrics, achieved never exceeds offered
        # (small slack for window-edge completions), and each fixed
        # (system, channels) curve agrees on one knee_rate — the highest
        # swept rate whose p99 met the SLO — with every above-knee point
        # violating the SLO (the defining property of a maximum).
        if "rate" in axis_values:
            curves = {}
            for point in points:
                metrics = point.get("metrics") or {}
                for field in ("latency_p50", "latency_p95", "latency_p99",
                              "offered_rate", "achieved_rate", "queue_peak",
                              "knee_rate", "slo_p99"):
                    if field not in metrics:
                        fail(path, f"{name}: open-loop point "
                                   f"{point['coords']} missing metric "
                                   f"{field!r}")
                if (metrics["achieved_rate"]
                        > metrics["offered_rate"] * 1.02 + 2):
                    fail(path, f"{name}: point {point['coords']} achieved "
                               f"more than it offered")
                if not (metrics["latency_p50"] <= metrics["latency_p95"]
                        <= metrics["latency_p99"]):
                    fail(path, f"{name}: point {point['coords']} has "
                               f"non-monotone latency percentiles")
                key = tuple(sorted((a, l)
                                   for a, l in point["coords"].items()
                                   if a != "rate"))
                curves.setdefault(key, []).append(metrics)
            for key, series in curves.items():
                knees = {m["knee_rate"] for m in series}
                if len(knees) != 1:
                    fail(path, f"{name}: curve {dict(key)} disagrees on "
                               f"knee_rate: {sorted(knees)}")
                knee = knees.pop()
                for m in series:
                    if (m["offered_rate"] > knee
                            and m["latency_p99"] <= m["slo_p99"]):
                        fail(path, f"{name}: curve {dict(key)} meets the "
                                   f"SLO above its recorded knee {knee}")
        # The fault-tolerance sweep must actually inject: the f0 baseline
        # stays clean, every other rate point records injections, and — in
        # quick mode, where CI validates it — no point with the full retry
        # budget may lose an op below the extreme-rate knee. (Full-size
        # runs inject proportionally more faults per op, which moves the
        # knee leftward, so the recovery assertion only binds quick runs.)
        if "fault" in axis_values:
            for point in points:
                run = point["run"]
                coords = point["coords"]
                if coords["fault"] == "f0":
                    if run["faults_injected"] != 0 or run["failed_ops"] != 0:
                        fail(path, f"{name}: fault-free baseline point "
                                   f"{coords} reports fault activity")
                    if not run["correct"]:
                        fail(path, f"{name}: fault-free baseline point "
                                   f"{coords} is incorrect")
                else:
                    if run["faults_injected"] == 0:
                        fail(path, f"{name}: fault point {coords} "
                                   f"injected nothing")
                    if (quick
                            and coords.get("budget") == "r4"
                            and coords["fault"] in ("f20", "f100")
                            and (run["failed_ops"] != 0
                                 or not run["correct"])):
                        fail(path, f"{name}: budgeted point {coords} "
                                   f"failed to recover")


def check_doc(path, doc):
    for key in ("bench", "quick", "experiments"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    check_experiments(path, doc["experiments"], doc["quick"])
    n_pts = sum(len(e["points"]) for e in doc["experiments"])
    print(f"{path}: ok ({doc['bench']}, {len(doc['experiments'])} "
          f"experiment(s), {n_pts} point(s))")


def check_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"does not parse: {e}")
    check_doc(path, doc)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
