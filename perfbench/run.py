#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-durable-log|rt-tcp-mixed|mc-adore \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload briefly
    python3 perfbench/run.py --selftest   # doctored records through every check

The benchmark package (perfbench/CMakeLists.txt) compiles the repository's
libraries from ../src and the benchmark binary into .bench_build/ at the
repository root; later runs rebuild only what changed. Build output goes
to stderr, and only if the build fails. The benchmark binary prints the
result as the last line of stdout; its exit code is passed through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Adore sources next to the benchmark "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 3
    args = list(argv)
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            args += ["--trace-dir", trace_dir]
    limit = 175
    if "--seconds" in args:
        i = args.index("--seconds")
        if i + 1 < len(args) and args[i + 1].isdigit():
            # A run measures for --seconds, then checks and (traced) replays.
            limit = max(limit, 4 * int(args[i + 1]) + 60)
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit} s", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
