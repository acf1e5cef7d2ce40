#!/usr/bin/env python3
"""Build and run the spinal-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload codec|link|wire|all --seed N --seconds S --trace 0|1

The Go program in this directory (its own module, which takes the
repository's `spinal` module from the parent directory) is built into
`.bench_build/` at the repository root, with its Go build cache there too,
and run with the arguments given. Its last line of output is the JSON
result. Without the repository's sources next to this directory the build
fails and so does this script.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", exe, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
