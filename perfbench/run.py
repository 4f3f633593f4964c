#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload serve-nested --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
dmll library, dmll-serve and the perfbench binary from the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build); later runs only check that the
build is current. Build output goes to stderr, so the last line of stdout is
the JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-nested", "serve-flat", "codegen-batch")
# Everything after the build must end within the run budget.
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(out, "perfbench-cmake")
    work = os.path.join(out, "perfbench-work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # gcc, run by cmake and by the codegen workload, keeps its temporaries
    # inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build])
    steps.append(["cmake", "--build", build, "--target", "dmll-serve",
                  "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build, "tools", "dmll-serve"),
           "--work-dir", work]
    # Its own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
