#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 3 --seconds 12 --trace 0

Builds the perfbench Go module (this directory) against the probgraph
module one directory up, with the Go build cache and the binary under
.bench_build/ at the repository root, then runs the binary with the
same arguments. The binary prints its report and, as the last line of
standard output, one JSON object with the results.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; one run must end within 180


def build():
    env = dict(os.environ)
    # Everything the toolchain writes stays under .bench_build: the build
    # cache, module cache, temporary files and its user config (telemetry).
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=HERE, env=env, stdout=sys.stderr
    ).returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no probgraph module next to the benchmark; nothing to build", file=sys.stderr)
        return 1
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    data = os.path.join(BUILD, "perfbench-data")
    try:
        proc = subprocess.run(
            [BINARY, "-dir", data] + sys.argv[1:],
            cwd=ROOT,
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
