#!/usr/bin/env python3
"""Build the benchmark, generate one workload from the seed, measure it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-small --seed 1 --seconds 30 --trace 0

The program is built from source with cargo (into $CARGO_TARGET_DIR, or
.bench_build when unset). Inputs are generated into .bench_work/<workload>
by a separate process before anything is timed. The last line printed is
the result object; build output and diagnostics go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["deep-small", "panel-large", "amplicon-serve"]
# Generation plus measurement must end within 180 seconds of the build.
RUN_BUDGET_S = 170


def run(cmd, deadline=None, **kw):
    """Run a child to completion; past the deadline it is killed and
    waited for, and the benchmark fails."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    exe = os.path.join(target, "release", "perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    gen = run([exe, "gen", *common], deadline, stdout=sys.stderr)
    if gen.returncode != 0:
        sys.exit(1)
    measured = run(
        [exe, "run", *common, "--seconds", str(args.seconds), "--trace", args.trace],
        deadline,
        stdout=subprocess.PIPE,
        text=True,
    )
    if measured.returncode != 0:
        sys.exit(1)
    sys.stdout.write(measured.stdout)


if __name__ == "__main__":
    main()
