#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rendezvous --seed 1 --seconds 28 --trace 0

Builds `perfbench` (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it; its standard output passes through, and
its last line is the JSON result. Build output goes to standard error.
Exits non-zero without a result when the repository's crates are missing
or the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["rendezvous", "sgl", "minimax", "sweep"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        print("error: the workspace crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 2

    rustc = subprocess.run(["rustc", "--version"], cwd=ROOT, env=env,
                           capture_output=True, text=True).stdout.strip() or "unknown"
    # Replace this process with the benchmark, so a signal to it reaches
    # the measuring process and nothing is left running behind it.
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(exe, [exe,
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", args.trace,
                    "--work-dir", os.path.join(target, "perfbench"),
                    "--rustc", rustc], env)


if __name__ == "__main__":
    sys.exit(main())
