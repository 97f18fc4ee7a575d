#!/usr/bin/env python3
"""Benchmark entry point: builds `apex` and the harness from source, then
runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of an apex checkout. Build output goes to stderr; the
last stdout line is the harness's JSON result. Everything the run writes
stays under the checkout: `CARGO_TARGET_DIR` (default `.bench_build`)
and `.bench_work`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("report_cold", "report_warm", "serve_mix")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "Cargo.lock", "src/bin/apex.rs", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.exit(f"perfbench: {needed} not found; run from the root of an apex checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--locked", "--bin", "apex"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", "perfbench/Cargo.toml"],
    )
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")

    harness = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--apex", os.path.join(target, "release", "apex"),
         "--work", os.path.join(root, ".bench_work")],
        env=env,
    )
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
