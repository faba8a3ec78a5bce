#!/usr/bin/env python3
"""Builds the SNAP benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selftest

The runner is built with CMake from perfbench/CMakeLists.txt, which
compiles the library from the repository's src/. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build, both relative to the
repository root; scratch files (socket rendezvous, span files) go to
.bench_run. Build output goes to stderr; the last line on stdout is the
runner's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; the first run of a checkout may also
# build for a while, so the limit applies to the run itself.
RUN_LIMIT_S = 175.0


def build(build_dir):
    """Configures (once) and builds the runner; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    command = ["cmake", "--build", build_dir, "--target", "snapbench",
               "-j", "4"]
    return subprocess.call(command, stdout=sys.stderr) == 0


def run(binary, arguments, limit_s):
    """Runs the binary in its own process group; kills the group on timeout."""
    process = subprocess.Popen([binary] + arguments, cwd=ROOT,
                               start_new_session=True)
    try:
        return process.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("run.py: run exceeded %.0f s" % limit_s, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "snapbench")
    if args.selftest:
        return run(binary, ["--selftest"], RUN_LIMIT_S)

    started = time.monotonic()
    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", args.trace,
                 "--work-dir", ".bench_run"]
    return run(binary, arguments, RUN_LIMIT_S - (time.monotonic() - started))


if __name__ == "__main__":
    sys.exit(main())
