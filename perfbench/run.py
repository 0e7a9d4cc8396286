#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 12 --trace 0

The Go benchmark in this directory is compiled from source into
.bench_build/perfbench/ (build cache included, so nothing is written outside
the checkout) and then run with the arguments given here. The exit code is
the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # a run must end well within three minutes


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
