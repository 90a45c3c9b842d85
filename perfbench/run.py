#!/usr/bin/env python3
"""Builds the perfbench binary and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (``perfbench/Cargo.toml``)
built against the repository's crates by path. Two release builds are kept
side by side under the Cargo target directory (``$CARGO_TARGET_DIR``,
default ``.bench_build``): ``obs-off`` for the workloads that run with
observability compiled out and ``obs-on`` for ``churn-monitored``. Both are
built on every call (a no-op once fresh), so any first run pays for both.
Build output goes to standard error; the binary's standard output — whose
last line is the result object — passes through untouched. Exits with the
build's or the benchmark's status.
"""

import os
import subprocess
import sys

OBS_WORKLOADS = {"churn-monitored"}
HERE = os.path.dirname(os.path.abspath(__file__))


def workload_of(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return None


def build(target_dir, variant, features):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", os.path.join(target_dir, variant),
    ] + features
    return subprocess.run(cmd, stdout=sys.stderr).returncode


def main():
    argv = sys.argv[1:]
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    for variant, features in (("obs-off", []), ("obs-on", ["--features", "obs"])):
        code = build(target_dir, variant, features)
        if code != 0:
            print(f"perfbench: {variant} build failed ({code})", file=sys.stderr)
            return code if code > 0 else 1
    variant = "obs-on" if workload_of(argv) in OBS_WORKLOADS else "obs-off"
    binary = os.path.join(target_dir, variant, "release", "perfbench")
    code = subprocess.run([binary] + argv).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
