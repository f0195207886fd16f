#!/usr/bin/env python3
"""Build the cellspot end-to-end benchmark and run one workload.

Usage, from the root of a cellspot checkout:

    python3 perfbench/run.py --workload paper_cold --seed 20161224 \
        --seconds 10 --trace 0 [extra benchmark flags, e.g. --tiny]

The first call configures and builds perfbench/ (which pulls in the
library sources under src/) into .bench_build/; later calls only rebuild
what changed. Build output goes to stderr. The workload then runs in one
child process whose stdout is passed through: human-readable metric lines,
then one JSON result line last. The exit status is the child's; a failed
build exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cellspot_perfbench")
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the benchmark; raises on failure."""
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "cellspot_perfbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr, cwd=ROOT)


def source_id():
    """The git commit of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--source-id", source_id()] + extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
