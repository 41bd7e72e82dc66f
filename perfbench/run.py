#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload rmat|grid --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the `perfbench` package (this directory) and the
repository's `ligra-serve` binary from source in release mode, runs the
workload and passes its output through: the last stdout line is the JSON
result. `--self-test` builds the same binaries and runs the package's own
tests, which include a tiny-size smoke run of both workloads.

Builds go to $CARGO_TARGET_DIR (default `perfbench/target`); scratch files
(the served graph, span files, result files) go to `perfbench-work` inside
it. Cargo's output goes to stderr so stdout carries only results.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

# glibc adapts its mmap and trim thresholds to the allocation history, and
# the partitioned edgeMap allocates its bins every round: depending on that
# history a run page-faults its bins in afresh (about 1.0M minor faults
# per rMat run) or reuses heap pages (0.11M), and PageRank on rMat 2^18
# takes 0.87-1.0 s or 0.55 s. Pinning both thresholds at glibc's initial
# 128 KiB turns the adaptation off, so every run takes the first path: the
# one a process starts on, where the cost of allocating bins per round
# stays visible. Both the benchmark and ligra-serve inherit the pin.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(128 << 10), "MALLOC_TRIM_THRESHOLD_": str(128 << 10)}


def cargo(args, target):
    """Runs cargo from the repository root (so its .cargo/config.toml
    applies) with stdout sent to stderr; returns the exit code."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def build(target):
    bench = ["--release", "--offline", "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    serve = ["--release", "--offline", "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
             "-p", "ligra-engine", "--bin", "ligra-serve"]
    for args in (["build"] + bench, ["build"] + serve):
        if cargo(args, target) != 0:
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(3)
    return bench


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(BENCH, "target")))
    serve_bin = os.path.join(target, "release", "ligra-serve")
    bench = build(target)
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(cargo(["test"] + bench, target))
    work = os.path.join(target, "perfbench-work")
    cmd = [os.path.join(target, "release", "perfbench")] + sys.argv[1:]
    cmd += ["--serve-bin", serve_bin, "--work-dir", work]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **MALLOC_ENV)).returncode)


if __name__ == "__main__":
    main()
