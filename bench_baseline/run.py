#!/usr/bin/env python3
"""Builds and runs the LIMA baseline benchmark (see README.md here).

    python3 bench_baseline/run.py --workload pipelines|minibatch|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else: paths are resolved from this
file. The first call builds the LIMA libraries and the benchmark into
.bench_build/ (an optimised Release build); later calls only re-check it.
Each run gets a fresh work directory under .bench_build/ for its stores and
the serve socket, removed afterwards. The last stdout line is the result
object; build output and diagnostics go to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "bench_baseline")
WORKLOADS = ("pipelines", "minibatch", "serve_mix")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_baseline: no LIMA sources at %s/src" % ROOT)
    steps = [["cmake", "--build", BUILD_DIR, "-j", "4"]]
    # Configure once; later builds re-run CMake themselves when a build
    # file changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_baseline: build failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    build()
    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD_DIR, "bench_baseline"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=work, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("bench_baseline: run exceeded %ds" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("bench_baseline: benchmark exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
