#!/usr/bin/env python3
"""Serving benchmark: builds the replay program from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload clicks --seed 1 --seconds 45 --trace 0

The replay program (perfbench/serve_replay.cc) is built with CMake in
Release mode into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; perfbench/CMakeLists.txt pulls in the
repository's own CMakeLists.txt for the library. Later runs rebuild only
what changed.

Build output goes to stderr. The last line of stdout is serve_replay's JSON
result; the exit code is serve_replay's, or non-zero when the checkout holds
no sources to build.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def run_timeout(seconds):
    """serve_replay needs about 1.15 x --seconds (measured slices plus
    warm-ups) and a few seconds for inputs, set-up and checking."""
    return 1.15 * seconds + 60


def build(build_dir):
    """Configures (once) and builds serve_replay; returns its path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "serve_replay",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "serve_replay")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["clicks", "distinct"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(REPO_ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(REPO_ROOT, "src"))):
        print("perfbench: no CMakeLists.txt and src/ beside perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO_ROOT, build_root, "perfbench")
    program = build(build_dir)
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    snapshot = os.path.join(build_dir, "qlog-%d.snap" % os.getpid())
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--snapshot", snapshot]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: serve_replay timed out", file=sys.stderr)
        return 4
    finally:
        if os.path.exists(snapshot):
            os.remove(snapshot)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
