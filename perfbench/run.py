#!/usr/bin/env python3
"""Build and run the host-clock d/stream benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload scf_frames --seed 1 --seconds 10 --trace 0

Builds perfbench/ (an optimized CMake build under .bench_build/) and runs
the driver with the same arguments.
Build output goes to stderr; the driver's last stdout line is the JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-work")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "pcxx_perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    os.makedirs(work_dir, exist_ok=True)
    exe = os.path.join(build_dir, "pcxx_perfbench")
    done = subprocess.run([exe, "--workdir", work_dir] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
