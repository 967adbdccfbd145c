#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a Release
tree under .bench_build/ (the directory in $CARGO_TARGET_DIR when set); later
runs only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's result object. Exits non-zero, without a result,
when the sources are missing or the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def run(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
               stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", build_dir, "--target", "lpsram_perfbench",
                "-j", jobs], stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no lpsram sources next to perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    sys.stdout.flush()
    try:
        return run([os.path.join(build_dir, "lpsram_perfbench"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", os.path.join(build_dir, "work")],
                   timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
