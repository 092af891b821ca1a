#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix-cold --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and the run's scratch files all stay under
.bench_build/ in the checkout, and the build never reaches the network.
Arguments after the script name go to the benchmark unchanged; its last
line of standard output is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
