#!/usr/bin/env python3
"""Validates the JSON artifacts the bench binaries emit with --json.

Checks, per experiment-grid file:
  * the document parses and has the {"bench", "quick", "experiments"} keys;
  * every experiment carries a name, a non-empty axes list and points;
  * every point's coords object has exactly one entry per declared axis,
    and its label is one of the axis's declared values;
  * every point embeds a "run" object with the RunResult core fields.

Files with "bench": "kernel" (perf_kernel's BENCH_kernel.json) are
validated against the kernel-artifact shape instead: the throughput /
identity / floor fields are present and internally consistent, every
thread-scaling point records requested vs effective threads with an
oversubscription flag, and no oversubscribed point leaks into
gated_parallel_ms (oversubscribed wall-clocks measure the host, not the
engine, so CI floors must ignore them).

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


KERNEL_FIELDS = {"seed", "hardware_threads", "gated_serial_ms",
                 "gated_parallel_ms", "dram_naive_serial_ms",
                 "dram_gated_serial_ms", "dram_sim_cycles_total",
                 "dram_sim_cycles_per_sec", "dram_cycles_per_sec_floor",
                 "dram_throughput_pass", "dram_cycle_identical",
                 "dram_mc_cycle_identical", "dram_mc_all_verified",
                 "channel_scaling",
                 "sim_cycles_total", "sim_cycles_per_sec_gated_serial",
                 "cycle_identical_naive_vs_gated", "all_workloads_verified",
                 "open_loop", "thread_scaling"}

SCALE_POINT_FIELDS = {"threads_requested", "threads_effective",
                      "oversubscribed", "wall_ms", "dram_wall_ms"}


def check_kernel_file(path, doc):
    """Validates perf_kernel's BENCH_kernel.json artifact shape."""
    missing = KERNEL_FIELDS - set(doc)
    if missing:
        fail(path, f"kernel artifact missing fields {sorted(missing)}")
    hw = doc["hardware_threads"]
    points = doc["thread_scaling"]
    if not points:
        fail(path, "empty thread_scaling series")
    honest_min = None
    for point in points:
        if not SCALE_POINT_FIELDS <= set(point):
            fail(path, f"thread_scaling point {point!r} missing fields")
        req, eff = point["threads_requested"], point["threads_effective"]
        if eff != min(req, hw):
            fail(path, f"threads_effective {eff} != min(requested {req}, "
                       f"hardware {hw})")
        if point["oversubscribed"] != (req > hw):
            fail(path, f"oversubscribed flag wrong for requested={req} "
                       f"on {hw} hardware thread(s)")
        if not point["oversubscribed"]:
            wall = point["wall_ms"]
            honest_min = wall if honest_min is None else min(honest_min, wall)
    if honest_min is None:
        fail(path, "every thread_scaling point is oversubscribed "
                   "(the serial point never is)")
    # CI floors must ignore flagged points: gated_parallel_ms may only
    # come from non-oversubscribed runs.
    if doc["gated_parallel_ms"] > honest_min * (1 + 1e-9):
        fail(path, f"gated_parallel_ms {doc['gated_parallel_ms']} exceeds "
                   f"best non-oversubscribed point {honest_min}")
    # The throughput fields must be self-consistent and the floor honored.
    derived = doc["dram_sim_cycles_total"] / (doc["dram_gated_serial_ms"]
                                              / 1000.0)
    if abs(derived - doc["dram_sim_cycles_per_sec"]) > 1e-6 * derived:
        fail(path, f"dram_sim_cycles_per_sec {doc['dram_sim_cycles_per_sec']}"
                   f" inconsistent with cycles/wall ({derived:.1f})")
    floor_ok = doc["dram_sim_cycles_per_sec"] >= doc["dram_cycles_per_sec_floor"]
    if doc["dram_throughput_pass"] != floor_ok:
        fail(path, "dram_throughput_pass disagrees with the recorded "
                   "floor comparison")
    for gate in ("dram_throughput_pass", "dram_cycle_identical",
                 "dram_mc_cycle_identical", "dram_mc_all_verified",
                 "cycle_identical_naive_vs_gated", "all_workloads_verified"):
        if not doc[gate]:
            fail(path, f"kernel artifact gate {gate} is false")
    # Channel scale-out: the 2-channel aggregate R-util scaling of the
    # streaming harness must meet the recorded floor, and the recorded
    # pass flag must agree with the recorded numbers.
    cs = doc["channel_scaling"]
    for field in ("agg_r_util", "channels", "scaling_2ch", "floor", "pass"):
        if field not in cs:
            fail(path, f"channel_scaling missing field {field!r}")
    if len(cs["agg_r_util"]) != len(cs["channels"]):
        fail(path, "channel_scaling series length mismatch")
    derived_scaling = (cs["agg_r_util"][1] / cs["agg_r_util"][0]
                       if cs["agg_r_util"][0] else 0.0)
    if abs(derived_scaling - cs["scaling_2ch"]) > 1e-6:
        fail(path, f"channel_scaling scaling_2ch {cs['scaling_2ch']} "
                   f"inconsistent with the utilization series")
    if cs["pass"] != (cs["scaling_2ch"] >= cs["floor"]):
        fail(path, "channel_scaling pass flag disagrees with the floor")
    if not cs["pass"]:
        fail(path, f"channel scaling {cs['scaling_2ch']:.2f}x below the "
                   f"{cs['floor']}x floor")
    # Open-loop latency gate: the three SLO-knee curves are present and
    # internally consistent, the recorded knee ratio matches the knees, the
    # pass flag matches the knee floor and the coalesce-vs-pack p99
    # condition at the reference rate, and the gated-vs-naive open-loop
    # identity check passed.
    ol = doc["open_loop"]
    for field in ("slo_p99", "ref_rate", "rates", "base", "pack", "coalesce",
                  "knee_ratio", "floor", "pass", "identical"):
        if field not in ol:
            fail(path, f"open_loop missing field {field!r}")
    for label in ("base", "pack", "coalesce"):
        curve = ol[label]
        if len(curve["p99"]) != len(ol["rates"]):
            fail(path, f"open_loop {label} p99 series length mismatch")
        if curve["p99_at_ref"] != curve["p99"][ol["rates"].index(
                ol["ref_rate"])]:
            fail(path, f"open_loop {label} p99_at_ref inconsistent with its "
                       f"p99 series")
        if not curve["verified"]:
            fail(path, f"open_loop {label} curve has unverified points")
        derived_knee = 0.0
        for rate, p99 in zip(ol["rates"], curve["p99"]):
            if p99 <= ol["slo_p99"]:
                derived_knee = max(derived_knee, rate)
        if derived_knee != curve["knee"]:
            fail(path, f"open_loop {label} knee {curve['knee']} "
                       f"inconsistent with its p99 series "
                       f"({derived_knee})")
    derived_ratio = (ol["coalesce"]["knee"] / ol["base"]["knee"]
                     if ol["base"]["knee"] else 0.0)
    if abs(derived_ratio - ol["knee_ratio"]) > 1e-6:
        fail(path, f"open_loop knee_ratio {ol['knee_ratio']} inconsistent "
                   f"with the recorded knees ({derived_ratio:.3f})")
    coalesce_p99_ok = (ol["coalesce"]["p99_at_ref"]
                       <= ol["pack"]["p99_at_ref"])
    if ol["pass"] != (ol["knee_ratio"] >= ol["floor"] and coalesce_p99_ok):
        fail(path, "open_loop pass flag disagrees with the floor and the "
                   "coalesce-vs-pack p99 condition")
    if not ol["pass"]:
        fail(path, f"open-loop knee ratio {ol['knee_ratio']:.2f}x (floor "
                   f"{ol['floor']}x) or coalesce p99 at the reference rate "
                   f"{ol['coalesce']['p99_at_ref']:.0f} > pack "
                   f"{ol['pack']['p99_at_ref']:.0f} cycles")
    if not ol["identical"]:
        fail(path, "open-loop gated vs naive runs diverged")
    print(f"{path}: ok (kernel, {len(points)} thread-scaling point(s), "
          f"{doc['dram_sim_cycles_per_sec']:.0f} dram sim cycles/s)")


def check_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"does not parse: {e}")
    if doc.get("bench") == "kernel" and "experiments" not in doc:
        check_kernel_file(path, doc)
        return
    for key in ("bench", "quick", "experiments"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    if not isinstance(doc["experiments"], list):
        fail(path, '"experiments" is not a list')
    for exp in doc["experiments"]:
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
                    if (doc["quick"]
                            and coords.get("budget") == "r4"
                            and coords["fault"] in ("f20", "f100")
                            and (run["failed_ops"] != 0
                                 or not run["correct"])):
                        fail(path, f"{name}: budgeted point {coords} "
                                   f"failed to recover")
    n_exp = len(doc["experiments"])
    n_pts = sum(len(e["points"]) for e in doc["experiments"])
    print(f"{path}: ok ({doc['bench']}, {n_exp} experiment(s), "
          f"{n_pts} point(s))")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
