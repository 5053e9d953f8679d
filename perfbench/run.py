#!/usr/bin/env python3
"""Builds and runs the served end-to-end benchmark of PIPES.

Run from the root of a checkout:

    python3 perfbench/run.py --workload espbench-serve --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The first run configures and builds perfbench/ (the PIPES sources plus the
benchmark driver) into .bench_build/perfbench; later runs only rebuild what
changed. Every argument is passed on to the driver, whose last line of
output is the JSON result. With --trace 1 the traced pass's spans go to
.bench_build/perfbench/spans/<workload>-seed<seed>.tsv.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pipes_perfbench")


def build():
    """Configures (once) and builds the driver; returns True on success."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" %
                                 " ".join(cmd))
                return False
    return True


def main(argv):
    if not build():
        return 1
    args = list(argv)
    if "--trace" in args and "--workload" in args and "--seed" in args:
        trace = args[args.index("--trace") + 1]
        if trace == "1":
            name = "%s-seed%s.tsv" % (args[args.index("--workload") + 1],
                                      args[args.index("--seed") + 1])
            args += ["--spans", os.path.join(BUILD, "spans", name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
