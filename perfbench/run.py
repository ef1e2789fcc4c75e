#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve|spot|serve|paper \
        --seed N --seconds S --trace 0|1

The program is built with dune in release mode into _perfbench/build;
traces and the determinism ledger go to _perfbench. Build output goes
to standard error; the last line of standard output is the program's
JSON result. The exit code is the program's, or 2 when the checkout
cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "_perfbench")
BUILD = os.path.join(OUT, "build")
TARGET = "./perfbench/main.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the root of a full checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    os.makedirs(OUT, exist_ok=True)
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD,
           "--profile", "release", TARGET]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    return os.path.join(BUILD, "default", "perfbench", "main.exe")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["solve", "spot", "serve", "paper"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", OUT]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
