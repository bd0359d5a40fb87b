#!/usr/bin/env python3
"""Self-test for tools/check_bench_json.py.

Builds a valid bench artifact in memory and asserts that the validator
accepts it, then asserts that it rejects each single mutation: a coalescer
sweep point with the wrong coalescer traffic, a point that failed
verification outside a fault sweep, an incorrect fault point without
failed ops, and a fault-free baseline that reports injections.

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


def point(coords, **run_fields):
    """A verified point whose run fields are zero unless given."""
    run = {field: 0 for field in validator.RUN_FIELDS}
    run.update({"correct": True, **run_fields})
    return {"coords": coords, "metrics": {}, "run": run}


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


def main():
    failures = []
    checks = 1 + len(BENCH_MUTATIONS)
    if not accepts(valid_bench_artifact()):
        failures.append("the valid bench artifact is rejected")
    for what, mutate in BENCH_MUTATIONS:
        doc = valid_bench_artifact()
        mutate(doc)
        if accepts(doc):
            failures.append(f"accepted a mutation: {what}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{checks - len(failures)}/{checks} checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
