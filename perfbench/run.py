#!/usr/bin/env python3
"""Build the benchmark and run it.

Start from the root of a checkout of the repository:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py scale

The program is built from source into .bench_build (release profile,
dune's shared cache off, so nothing is written outside the checkout).
Build output goes to standard error; the benchmark's last line of
standard output is its JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; start from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache=disabled", "-j", "2",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
