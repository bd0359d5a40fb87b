#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds benchmark/ (CMake, Release) into .bench_build/ at the
repository root, runs axipack_bench for about S seconds of repeats, and
prints the binary's `name value unit` lines followed, as the last line, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics BENCHMARK.json names,
with --trace 1 its per_layer metrics (and the Chrome trace is written to
.bench_build/traces/). The full run record goes to .bench_build/runs/, which
is what benchmark/compare.py reads. Exits non-zero, printing no result, when
the build fails, the binary fails or a named metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns (exit code, output).
    On a timeout or an interrupt the whole group (make and the compilers
    too) is killed and waited for before the exception propagates."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build():
    """Configures and builds axipack_bench (tool output goes to stderr);
    returns the binary's path, or None when a step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "axipack_bench",
                 "-j", jobs]):
        if run(cmd, BUILD_TIMEOUT_S, sys.stderr)[0] != 0:
            return None
    return os.path.join(BUILD, "axipack_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.TimeoutExpired, OSError) as e:
        print("benchmark build failed: %s" % e, file=sys.stderr)
        return 1
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    out = os.path.join(BUILD, "runs", tag + ".json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--out=" + out]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd.append("--trace=" + os.path.join(BUILD, "traces", tag + ".json"))
    if os.path.exists(out):
        os.remove(out)
    try:
        code, output = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    # Exit 1 is a verification or determinism failure: the record is still
    # written and reported with correct=false.
    if code not in (0, 1) or not os.path.exists(out):
        print("axipack_bench exited with %d" % code, file=sys.stderr)
        return 1

    with open(out) as f:
        record = json.load(f)
    section = record["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("metric %s (%s) missing from the run" % (m["name"], m["unit"]),
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(record["correct"]) and code == 0,
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
