#!/usr/bin/env python3
"""Build SmartStore and the benchmark from source, run one workload, and
print its result as the last line of standard output.

Usage (from the repository root):
  python3 perfbench/run.py --workload ingest|query|service --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/) and
store state to .bench_state/, both under the repository root. A traced
run (--trace 1) first makes the same run untraced, then the traced one,
and adds trace.overhead_pct: the traced run's throughput loss against the
untraced run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the benchmark's budget for one workload run


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the SmartStore sources are not next to the benchmark; "
             "run from a full checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    cfg = subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if cfg.returncode != 0:
        fail("cmake configure failed:\n" + cfg.stderr[-4000:])
    out = subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target"] + targets,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if out.returncode != 0:
        fail("build failed:\n" + out.stdout[-4000:])
    return build_dir


def run_once(binary, args, trace, state_dir, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--state-dir", state_dir]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run exceeded its time budget")
    if out.returncode != 0:
        fail(f"{args.workload} run exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} run printed no result")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=["ingest", "query", "service"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    start = time.monotonic()

    state_root = os.path.join(ROOT, ".bench_state")
    if args.selftest:
        build_dir = build(["perfbench_selftest"])
        state_dir = os.path.join(state_root, "selftest")
        rc = subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest"), state_dir]).returncode
        shutil.rmtree(state_dir, ignore_errors=True)
        sys.exit(rc)
    if args.workload is None:
        p.error("--workload is required")

    build_dir = build(["perfbench"])
    binary = os.path.join(build_dir, "perfbench")
    deadline = start + RUN_LIMIT_S
    state_dir = os.path.join(state_root, f"{args.workload}-{args.seed}")
    try:
        if args.trace:
            plain = run_once(binary, args, False, state_dir, deadline)
            result = run_once(binary, args, True, state_dir, deadline)
            base = plain["metrics"]["ops_per_s"]["value"]
            traced = result["metrics"]["trace.ops_per_s"]["value"]
            result["metrics"]["trace.overhead_pct"] = {
                "value": 100.0 * (base - traced) / base, "unit": "%"}
            result["correct"] = result["correct"] and plain["correct"]
            spans = os.path.join(state_dir, "spans.csv")
            if os.path.exists(spans):
                shutil.move(spans, os.path.join(
                    state_root, f"spans-{args.workload}-{args.seed}.csv"))
        else:
            result = run_once(binary, args, False, state_dir, deadline)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
