#!/usr/bin/env python3
"""End-to-end benchmark of pypmc / pypmd (see e2ebench/README.md).

    python3 e2ebench/run.py --workload cli-cold|daemon-warm|deep-fixpoint \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
the program and the load generator into .bench_build/ (CMake, package
e2ebench/CMakeLists.txt); later runs rebuild only what changed. Build
output goes to stderr; the last line of stdout is the JSON result of
`pypm_e2e run`, which does the measuring and the output checks.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"  # relative to ROOT: keeps the pypmd socket path short
TARGETS = ["pypm_e2e", "pypmc", "pypmd"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("e2ebench: no pypm source tree around e2ebench/; "
                 "nothing to build")
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "e2ebench", "-B", BUILD],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                   + TARGETS, cwd=ROOT, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli-cold", "daemon-warm", "deep-fixpoint"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")
    cmd = [os.path.join(BUILD, "pypm_e2e"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", BUILD, "--root", "."]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
