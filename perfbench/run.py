#!/usr/bin/env python3
"""Build and run the mbTLS end-to-end benchmark.

    python3 perfbench/run.py --workload bulk|rpc|connect --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Builds perfbench/ (which compiles the repository's src/ tree) into
.bench_build/perfbench under the repository root, runs the percentile
helper's tests, then runs the benchmark binary. Build output goes to stderr;
stdout carries the benchmark's report, whose last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit status is the
binary's: non-zero when a correctness check failed. `--workload all` runs
every workload, untraced and traced (or only the given --trace), prints each
report in turn and fails if any run failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["bulk", "rpc", "connect"]


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "mbtls_perfbench", "stats_test",
         "--parallel", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns its exit status after echoing its report."""
    cmd = [os.path.join(BUILD, "mbtls_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", trace, "--revision", revision()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")

    try:
        build()
        subprocess.run([os.path.join(BUILD, "stats_test")], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    failed = []
    for workload in WORKLOADS:
        for trace in [args.trace] if args.trace else ["0", "1"]:
            if run_one(workload, args.seed, args.seconds, trace) != 0:
                failed.append(f"{workload} --trace {trace}")
    print("perfbench: " + ("FAILED: " + ", ".join(failed) if failed else "every run correct"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
