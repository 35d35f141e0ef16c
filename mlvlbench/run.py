#!/usr/bin/env python3
"""Build the mlvl benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 mlvlbench/run.py --workload sweep|doctor|build --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/mlvlbench (default .bench_build/mlvlbench)
as a Release build. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, printing no result, when the
library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "mlvlbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["sweep", "doctor", "build"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mlvlbench: mlvl library sources (src/) not found next to "
              "the benchmark", file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "mlvlbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as ex:
        print(f"mlvlbench: build failed: {ex}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--goldens", os.path.join(HERE, "goldens.txt")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            out_root, f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
