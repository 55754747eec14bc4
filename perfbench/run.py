#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fleet-churn and scan-heavy (in BENCHMARK.json); hotspot-cluster
and hotspot-loopback (runnable, kept out of BENCHMARK.json; see NOTES.md).

The first run configures and builds perfbench/ (CMake, Release) under the
build directory, which is $CARGO_TARGET_DIR when set (relative paths are
taken from the repository root) and .bench_build otherwise; later runs only
re-check that build. The workload binary then runs with PSI_NUM_WORKERS=2.
Its note lines ("# ...") and, last, one JSON result line go to stdout; build
output and progress go to stderr. The exit status is the workload's: 0 only
when every op succeeded and every output check passed.

Extra flags for the benchmark's own tests: --tiny (smoke-sized inputs) and
--inject-wrong (corrupt one checked answer; the run must then fail).
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("fleet-churn", "scan-heavy", "hotspot-loopback", "hotspot-cluster")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def build(out):
    if not (REPO / "src" / "psi").is_dir() or not (REPO / "CMakeLists.txt").is_file():
        fail("library sources not found next to perfbench/; nothing to build")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", "3"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out = build_dir()
    binary = build(out)
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    env = dict(os.environ, PSI_NUM_WORKERS="2")
    print(f"perfbench: running {' '.join(cmd[1:])}", file=sys.stderr, flush=True)

    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload}: no result within {RUN_TIMEOUT_S} s; killed", 3)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        fail(f"{args.workload}: the last output line is not a result", 4)
    sys.exit(0)


if __name__ == "__main__":
    main()
