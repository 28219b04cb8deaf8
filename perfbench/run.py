#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload walked|memoized|churn --seed N \\
        --seconds S --trace 0|1

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Build output goes to stderr; the benchmark's last stdout line is the
result object. With --trace 1 the layer replay's spans are also written
to <target dir>/perfbench-spans/<workload>.jsonl.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag_value(args, flag):
    """The value following `flag` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    command = [os.path.join(target, "release", "unroller-perfbench")] + args
    workload = flag_value(args, "--workload")
    if flag_value(args, "--trace") == "1" and workload:
        command += ["--spans", os.path.join(target, "perfbench-spans", workload + ".jsonl")]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
