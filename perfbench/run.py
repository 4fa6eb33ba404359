#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the libraries under src/) into
.bench_build/perfbench in Release mode; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is non-zero, and no result
is printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "eyecod_perfbench")
# A run measures at most 60 s plus its set-up; anything slower is hung.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally. True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "eyecod_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
