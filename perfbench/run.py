#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-solve --seed 1 --seconds 20 --trace 0

It builds the benchmark driver (the Go module in this directory) and the
mroamd daemon from source into .bench_build/, keeping the Go build cache
there too, then runs the driver with the same arguments. The driver prints
every metric and, as its last line, the JSON result. The exit code is the
driver's: 0 for a correct run, non-zero otherwise.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    driver = os.path.join(out, "perfbench")
    daemon = os.path.join(out, "mroamd")
    for cwd, target, pkg in (
        (os.path.join(root, "perfbench"), driver, "."),
        (root, daemon, "./cmd/mroamd"),
    ):
        build = subprocess.run(["go", "build", "-o", target, pkg], cwd=cwd, env=env)
        if build.returncode != 0:
            print(f"perfbench: building {pkg} in {cwd} failed", file=sys.stderr)
            return 2
    cmd = [driver, *sys.argv[1:], "-mroamd", daemon, "-out", os.path.join(out, "run")]
    proc = subprocess.Popen(cmd, env=env)
    # Pass a stop request on, so the driver stops its daemons and workers.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, _frame: proc.send_signal(signum))
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
