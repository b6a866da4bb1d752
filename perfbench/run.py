#!/usr/bin/env python3
"""Build the procdecomp benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, span dumps and server cache directories all
go under the build directory ($CARGO_TARGET_DIR, default .bench_build), so the
benchmark writes nothing outside the checkout. The binary is built without
-race. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    exe = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-trimpath", "-o", exe, "."],
                           cwd=bench_dir, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(build, "perfbench")],
                         cwd=root)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
