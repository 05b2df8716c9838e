#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/bench.ml) is built from source with
dune, then run with the given arguments. Its last line of standard
output is the JSON result. The exit code is the program's: non-zero when
a correctness check fails or when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def commit():
    """The checked-out commit, read from .git inside the checkout only."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no dune-project and lib/ here; "
            "run from the root of a checkout of the repository\n")
        return 2
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    # On SIGTERM, stop the program too and wait for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = subprocess.Popen([EXE] + sys.argv[1:] + ["--commit", commit()])
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.terminate()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
