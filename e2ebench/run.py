#!/usr/bin/env python3
"""End-to-end serving benchmark entry point.

    python3 e2ebench/run.py --workload search-distinct --seed 1 \
        --seconds 25 --trace 0

Builds the benchmark package (e2ebench/CMakeLists.txt, which compiles the
repository's sources from ../src) into .bench_build/e2ebench, runs the
benchmark's arithmetic self-test, then runs one workload. The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only if
every output check passed.

Workloads: search-distinct, search-hot (see e2ebench/DESIGN.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the e2ebench binary; returns its path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "e2ebench",
             "-j", str(min(4, os.cpu_count() or 1))],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search-distinct", "search-hot"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "e2ebench")
    binary = build(build_dir)

    if subprocess.run([binary, "--self-test"], cwd=ROOT).returncode != 0:
        fail("self-test failed")

    work_dir = os.path.join(ROOT, ".bench_build", f"e2ebench-run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", git_commit()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
