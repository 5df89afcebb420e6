#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perf/run.py --workload kv-10k --seed 1 --seconds 20 --trace 0

Builds perf/bench/main.exe with dune (build directory .bench_build,
shared dune cache off, so nothing is written outside the checkout),
then runs it with the same arguments. The executable's stdout passes
through unchanged: one line per metric, then one JSON object as the
last line. Build output goes to stderr. The exit code is the
executable's, or 1 if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "perf/bench/main.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./" + TARGET],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    sys.stderr.buffer.write(build.stdout)
    if build.returncode != 0:
        sys.stderr.write("perf/run.py: build failed\n")
        return 1
    exe = os.path.join(ROOT, BUILD_DIR, "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
