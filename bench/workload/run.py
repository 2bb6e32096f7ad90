#!/usr/bin/env python3
"""Builds bench_workload from source and runs one workload.

    python3 bench/workload/run.py --workload W --seed S --seconds N --trace 0|1

The build goes to $CARGO_TARGET_DIR/workload (default .bench_build/workload,
relative to the repository root). The binary's metric lines are echoed; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics, holding the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). Exits non-zero, without
a result line, if the build or run fails, and with correct=false if a
correctness check failed.

A traced run's trace.overhead_pct compares its ops_per_s with the untraced
run of the same workload, seed and length, read from that run's result
file; when there is none, the untraced run is made first, in its own
process, so both start from the same state.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "workload")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: expected src/ at the repository root")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "bench_workload",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "bench_workload")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out_dir = build_dir()
    binary = build(out_dir)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)

    def result_path(trace):
        return os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{trace}.json")

    def run(trace, timeout):
        """Runs the binary once; returns (exit code, result)."""
        out = result_path(trace)
        if os.path.exists(out):
            os.remove(out)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", out]
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"bench_workload did not finish within {timeout:.0f} s")
        sys.stdout.write(proc.stdout)
        if not os.path.isfile(out):
            fail(f"bench_workload exited {proc.returncode} without a result")
        with open(out) as f:
            return proc.returncode, json.load(f)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        reference = None
        if os.path.isfile(result_path(0)):
            with open(result_path(0)) as f:
                reference = json.load(f)
        if reference is None or reference["seconds"] != args.seconds:
            _, reference = run(0, deadline - time.monotonic())
    returncode, result = run(args.trace, deadline - time.monotonic())
    if args.trace:
        ref_ops = reference["metrics"]["ops_per_s"]["value"]
        ops = result["metrics"]["ops_per_s"]["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100 * (1 - ops / ref_ops), "unit": "%"}
        with open(result_path(1), "w") as f:
            json.dump(result, f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from {result_path(args.trace)}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
