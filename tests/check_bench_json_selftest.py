#!/usr/bin/env python3
"""Self-test for tools/check_bench_json.py.

Builds a valid BENCH_kernel.json document and a valid bench artifact in
memory and asserts that the validator accepts both, then asserts that it
rejects each single mutation. Kernel mutations: a gate whose pass disagrees
with value >= floor, a failing gate, a missing gates array, a dropped or
unknown gate row, a dropped embedded set, and raw values that a
consistency check recomputes. Bench mutations: a coalescer sweep point
with the wrong coalescer traffic, a point that failed verification outside
a fault sweep, an incorrect fault point without failed ops, and a
fault-free baseline that reports injections.

Usage: check_bench_json_selftest.py   (exits non-zero on a failed check)
"""
import contextlib
import importlib.util
import io
import os
import sys

_TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "tools", "check_bench_json.py")
_spec = importlib.util.spec_from_file_location("check_bench_json", _TOOL)
validator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validator)


def accepts(doc):
    """True when the validator accepts `doc` (its messages are swallowed)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            validator.check_doc("selftest.json", doc)
    except SystemExit:
        return False
    return True


def gate(name, value, floor):
    return {"name": name, "value": value, "floor": floor,
            "pass": value >= floor}


def point(coords, **run_fields):
    """A verified point whose run fields are zero unless given."""
    run = {field: 0 for field in validator.RUN_FIELDS}
    run.update({"correct": True, **run_fields})
    return {"coords": coords, "metrics": {}, "run": run}


def experiment(name, *points):
    """A one-kernel set with one point per (scenario, cycles) pair."""
    scenarios = [scenario for scenario, _ in points]
    rows = [point({"kernel": "gemv", "scenario": scenario}, cycles=cycles)
            for scenario, cycles in points]
    return {"experiment": name,
            "axes": [{"name": "kernel", "values": ["gemv"]},
                     {"name": "scenario", "values": scenarios}],
            "points": rows}


def curve(p99, knee):
    return {"knee": knee, "p99_at_ref": p99[3], "p99": p99,
            "achieved_rate": [6, 12, 36, 75, 150], "verified": True}


def valid_artifact():
    return {
        "bench": "kernel", "seed": 42, "hardware_threads": 1,
        "pre_pr_equiv_naive_serial_ms": 200.0, "gated_serial_ms": 100.0,
        "speedup_gated_serial_vs_naive": 2.0, "sim_cycles_total": 2000,
        "sim_cycles_per_sec_gated_serial": 20000.0,
        "dram_naive_serial_ms": 4.0, "dram_gated_serial_ms": 2.0,
        "dram_sim_cycles_total": 3000, "dram_sim_cycles_per_sec": 1.5e6,
        "dram_mc_naive_serial_ms": 6.0, "dram_mc_gated_serial_ms": 3.0,
        "dram_mc_sim_cycles_total": 2500,
        "channel_scaling": {"masters": 8, "channels": [1, 2, 4],
                            "agg_r_util": [0.8, 1.6, 3.2]},
        "open_loop": {
            "slo_p99": 5000, "ref_rate": 80, "rates": [10, 20, 40, 80, 160],
            "base": curve([700, 800, 1800, 3800, 22000], 80),
            "pack": curve([390, 460, 600, 870, 1600], 160),
            "coalesce": curve([390, 460, 570, 790, 1500], 160)},
        "gates": [
            gate("headline_cycle_identical", 1.0, 1.0),
            gate("headline_verified", 1.0, 1.0),
            gate("dram_cycle_identical", 1.0, 1.0),
            gate("dram_verified", 1.0, 1.0),
            gate("dram_sim_cycles_per_sec", 1.5e6, 7e5),
            gate("dram_gemv_trmv_min_speedup", 1.0, 0.95),
            gate("dram_gemv_trmv_min_row_hit", 0.99, 0.95),
            gate("dram_ch4_cycle_identical", 1.0, 1.0),
            gate("dram_ch4_verified", 1.0, 1.0),
            gate("dram_batched_verified", 1.0, 1.0),
            gate("dram_batched_min_row_hit", 0.5, 0.45),
            gate("dram_coalesced_verified", 1.0, 1.0),
            gate("dram_coalesced_min_row_hit", 0.96, 0.9),
            gate("channel_scaling_2ch", 2.0, 1.7),
            gate("open_loop_verified", 1.0, 1.0),
            gate("open_loop_knee_ratio", 2.0, 1.5),
            gate("open_loop_p99_at_ref_pack_over_coalesce", 870 / 790, 1.0),
            gate("open_loop_cycle_identical", 1.0, 1.0)],
        "experiments": [
            experiment("headline", ("pack-256-17b", 2000)),
            experiment("dram", ("base-dram", 1500), ("pack-dram", 1500)),
            experiment("dram_ch4", ("pack-256-dram-ch4", 2500)),
            experiment("dram_batched", ("pack-dram", 1800)),
            experiment("dram_coalesced", ("pack-dram-coalesce", 400))],
    }


def valid_bench_artifact():
    """A quick bench file holding a coalescer sweep and a fault sweep."""
    return {
        "bench": "selftest", "quick": True,
        "experiments": [
            {"experiment": "coalesce",
             "axes": [{"name": "coalesce", "values": ["off", "x32"]}],
             "points": [point({"coalesce": "off"}, cycles=100),
                        point({"coalesce": "x32"}, cycles=80,
                              coalesce_unique=64)]},
            {"experiment": "fault",
             "axes": [{"name": "fault", "values": ["f0", "f50"]}],
             "points": [point({"fault": "f0"}, cycles=100),
                        point({"fault": "f50"}, cycles=120, correct=False,
                              faults_injected=5, failed_ops=2)]}]}


def set_run(experiment_index, point_index, **fields):
    return lambda d: d["experiments"][experiment_index]["points"][
        point_index]["run"].update(fields)


def drop_gate(name):
    return lambda d: d.update(
        gates=[g for g in d["gates"] if g["name"] != name])


KERNEL_MUTATIONS = [
    ("gate passes although value < floor",
     lambda d: d["gates"][0].update({"value": 0.0})),
    ("failing gate",
     lambda d: d["gates"][0].update({"value": 0.0, "pass": False})),
    ("missing gates array", lambda d: d.pop("gates")),
    ("headline_cycle_identical row dropped",
     drop_gate("headline_cycle_identical")),
    ("unknown gate row", lambda d: d["gates"].append(gate("extra", 1, 1))),
    ("embedded set dropped", lambda d: d["experiments"].pop(0)),
    ("cycle total disagrees with its embedded set",
     lambda d: d.update({"dram_mc_sim_cycles_total": 2600})),
    ("knee disagrees with its p99 series",
     lambda d: d["open_loop"]["base"].update({"knee": 40})),
    ("unverified open-loop curve under a passing gate",
     lambda d: d["open_loop"]["coalesce"].update({"verified": False})),
    ("p99_at_ref disagrees with its p99 series",
     lambda d: d["open_loop"]["pack"].update({"p99_at_ref": 900})),
    ("2-channel gate disagrees with the agg_r_util series",
     lambda d: d["channel_scaling"]["agg_r_util"].__setitem__(1, 1.2)),
    ("dram throughput disagrees with cycles/wall",
     lambda d: d.update({"dram_gated_serial_ms": 3.0})),
    ("embedded point without a run object",
     lambda d: d["experiments"][0]["points"][0].pop("run")),
]

BENCH_MUTATIONS = [
    ("coalesced point with no coalescer traffic",
     set_run(0, 1, coalesce_unique=0)),
    ("coalescer-off point with coalescer traffic",
     set_run(0, 0, coalesce_unique=8)),
    ("point outside the fault sweep failed verification",
     set_run(0, 0, correct=False)),
    ("incorrect fault point without failed ops", set_run(1, 1, failed_ops=0)),
    ("fault-free baseline reports injections",
     set_run(1, 0, faults_injected=1)),
]

CASES = [(valid_artifact, KERNEL_MUTATIONS),
         (valid_bench_artifact, BENCH_MUTATIONS)]


def main():
    failures = []
    checks = 0
    for make, mutations in CASES:
        checks += 1 + len(mutations)
        if not accepts(make()):
            failures.append(f"the valid {make.__name__} is rejected")
        for what, mutate in mutations:
            doc = make()
            mutate(doc)
            if accepts(doc):
                failures.append(f"accepted a mutation: {what}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{checks - len(failures)}/{checks} checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
