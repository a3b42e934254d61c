#!/usr/bin/env python3
"""Builds the vkg benchmark from the sources of this checkout and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

Workloads: topk_cold, update_mix. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; the last line of
stdout is one JSON object. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and generated inputs are cached in .bench_cache, both
under the checkout root. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("topk_cold", "update_mix")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: the vkg sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return 1
    build = ["cmake", "--build", build_dir, "--target", "vkg_perfbench",
             "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "vkg_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-dir", os.path.join(root, ".bench_cache")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
