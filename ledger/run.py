#!/usr/bin/env python3
"""Build the ledger from this source tree and run one workload.

    python3 ledger/run.py --workload city_mobility --seed 7 --seconds 10 --trace 0

Configures and builds `ledger` (this directory's CMake project, which
compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs it from the root of the tree. `--trace 0` gives the end-to-end metrics,
`--trace 1` the per-layer ones and a Chrome trace next to the build. The
last line of standard output is the ledger's JSON result; build output goes
to standard error. Exits non-zero, printing no result, when the tree has no
roadrunner sources or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"ledger: no roadrunner sources under {ROOT}", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", build, "--target", "ledger", "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print(f"ledger: build step failed: {' '.join(step)}", file=sys.stderr)
            return 2

    mode = "trace" if args.trace else "run"
    command = [
        os.path.join(build, "ledger"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--workloads={os.path.join(HERE, 'workloads')}",
        f"--scratch={os.path.join(build, 'scratch')}",
        f"--json={os.path.join(build, f'ledger-{args.workload}-{mode}.json')}",
    ]
    if args.trace:
        command.append(
            f"--trace={os.path.join(build, f'ledger-{args.workload}.trace.json')}")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"ledger: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
