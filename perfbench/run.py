#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. `--trace 0` builds and runs the end-to-end
runner (`perfbench`); `--trace 1` builds and runs the traced replica
(`perfbench-trace`), so a build break in one target cannot stop the other.
The build goes to $CARGO_TARGET_DIR, or `.bench_build` when it is unset. The
full result record (and, for traced runs, the spans) is written under
`<target dir>/perfbench-results/`. The last line of standard output is the
one-line JSON result; everything the build prints goes to standard error.
"""

import os
import subprocess
import sys


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    binary = "perfbench-trace" if trace == "1" else "perfbench"
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, "--bin", binary],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building {binary} failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", binary)
    out_dir = os.path.join(target, "perfbench-results")
    return subprocess.run([exe, *argv, "--out-dir", out_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
