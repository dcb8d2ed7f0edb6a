#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the runtime and
simulator sources plus the driver, optimized) under .bench_build/ the first
time, then runs one workload and relays the driver's output, whose last line
is the JSON result. All scratch files live under .bench_build/ and are
removed afterwards. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "vine_perfbench"
WORKLOADS = ("cmd_window", "call_burst", "dag_montage", "sim_montage")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the driver up to date. True on success."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return DRIVER.exists()


# Runtime workloads run on one CPU. On a shared virtual machine every wakeup
# of an idle vCPU waits for the host, and the runtime's threads hand work to
# each other constantly: unpinned, the same run varied up to 4x with the
# host's load. Pinned, wakeups stay on one busy vCPU. The simulator is one
# thread, so pinning would only keep the kernel from moving it off a vCPU
# the host is slowing down.
PINNED = ("cmd_window", "call_burst", "dag_montage")


def pin_to_one_cpu():
    """Confine the calling process and its future children to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_driver(args, work_dir):
    """Run the driver in its own process group; kill the group on timeout."""
    env = dict(os.environ, TMPDIR=str(work_dir))
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir / "rounds")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True,
                            preexec_fn=pin_to_one_cpu if args.workload in PINNED else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    work_dir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        code, out = run_driver(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        print(f"run.py: driver failed with exit code {code}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run.py: driver printed no JSON result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
