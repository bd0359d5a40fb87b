#!/usr/bin/env python3
"""CTest smoke check of axipack_bench.

Usage: smoke.py BINARY BENCHMARK_JSON WORKDIR

Runs `--workload=paper-sram --repeats=2` with --out and --trace and checks
that the binary exits 0, prints and records every metric BENCHMARK.json
names with its unit, and writes trace-event JSON that carries the layer
spans and every per-layer metric as a counter.
"""

import json
import os
import subprocess
import sys

SPANS = ("systems.build", "workloads.build", "systems.run", "workloads.check")


def main():
    binary, spec_path, workdir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    out = os.path.join(workdir, "smoke_run.json")
    trace = os.path.join(workdir, "smoke_trace.json")
    proc = subprocess.run(
        [binary, "--workload=paper-sram", "--seed=42", "--repeats=2",
         "--out=" + out, "--trace=" + trace],
        stdout=subprocess.PIPE, text=True, timeout=300)
    errors = []
    if proc.returncode != 0:
        errors.append("exit code %d" % proc.returncode)

    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    with open(out) as f:
        run = json.load(f)
    if not run["correct"] or run["failed"] != 0 or run["attempted"] < 1:
        errors.append("run not correct")
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if printed.get(m["name"]) != m["unit"]:
                errors.append("not printed: %s %s" % (m["name"], m["unit"]))
            got = run[section].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                errors.append("not recorded: %s %s" % (m["name"], m["unit"]))

    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["name"] for e in events if e["ph"] == "X"}
    counters = {e["name"] for e in events if e["ph"] == "C"}
    for name in SPANS:
        if name not in spans:
            errors.append("no span " + name)
    for m in spec["per_layer"]:
        if m["name"] not in counters:
            errors.append("no counter " + m["name"])

    for e in errors:
        print("smoke: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
