#!/usr/bin/env python3
"""Build the step benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload plummer-32k-p8 --seed 1 --seconds 16 --trace 0

The Go build cache and the binary live in .bench_build/ under the current
directory, so the benchmark reads and writes nothing outside the checkout
except the Go toolchain itself. All arguments are passed to the binary; its
exit code is returned unchanged.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "core"))):
        print("perfbench: run from the repository root (go.mod and "
              "internal/core not found in %s)" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=sys.stderr)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
