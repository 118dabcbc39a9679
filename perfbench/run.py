#!/usr/bin/env python3
"""Build and run the Psi-Lib-rs benchmark of record.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `psi-perfbench` package (its own
Cargo workspace under perfbench/) in release mode, runs one workload, passes
its output through and checks that the last line is a well-formed result for
the metrics BENCHMARK.json declares. Exits with the benchmark's own code, or
with 2 when the build fails and 3 when the result line is malformed.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return os.path.join(HERE, "target")
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"run.py: cannot start cargo: {e}", file=sys.stderr)
        return False


def expected_metrics(spec, trace):
    """Name -> unit of the metrics a run must report."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    """Problems with a result line; an empty list means it is well formed."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} is missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} is not declared")
    for name, m in metrics.items():
        if name not in expected:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} must hold exactly value and unit")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} has no finite value")
        if m["unit"] != expected[name]:
            problems.append(f"metric {name} has unit {m['unit']}, declared {expected[name]}")
    return problems


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    with open(SPEC) as f:
        expected = expected_metrics(json.load(f), trace)
    if not build():
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir(), "release", "psi-perfbench")
    proc = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problems = check_result(lines[-1], expected)
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 3
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
