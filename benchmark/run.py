#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds `benchmark/` (the library from `src/`
plus the driver, Release) into `.bench_build/`; later calls only re-check the
build. Build output goes to stderr, so the driver's result is the last line
of stdout. Exits non-zero, without a result, when the sources are missing or
the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "bench_driver"


def build() -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no src/ next to benchmark/; cannot build", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return DRIVER.is_file()


def main() -> int:
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([str(DRIVER)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
