#!/usr/bin/env python3
"""Build and run the healer benchmark (healbench/README.md).

    python3 healbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 healbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the engine and the benchmark (Release) under .bench_build/healbench;
later calls reuse that build. The last line of standard output is the
result object of the run; build logs go to standard error. Exits non-zero,
without a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "healbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target):
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs()],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD / target


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    try:
        if args.selftest:
            binary = build("healbench_test")
            return subprocess.run([str(binary)], cwd=ROOT, timeout=600).returncode
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        binary = build("healbench")
    except (subprocess.SubprocessError, OSError) as e:
        print(f"healbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(ROOT / ".bench_build" / "healbench-work"),
           "--out-dir", str(ROOT / ".bench_build" / "healbench-out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("healbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout if proc.returncode == 0 else "")
        print(f"healbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("healbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
