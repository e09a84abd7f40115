#!/usr/bin/env python3
"""Build the OBrew benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The driver is built with dune into
_build/; the driver's last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics, is checked and printed
as the last line of this script's standard output.  Everything else goes
to standard error.  Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/obrew_perf.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "obrew_perf.exe")
WORKLOADS = ("jacobi-exec", "compile-cold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the driver; dune's shared cache stays off so nothing is
    written outside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S, check=True)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except subprocess.CalledProcessError as e:
        fail("build failed (exit %d)" % e.returncode)
    if not os.path.isfile(EXE):
        fail("build produced no driver")


def parse_result(line):
    """The driver's result line, checked against the output contract."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(res))
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            raise ValueError("%s is not a whole number" % k)
    if res["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("malformed metric %s" % name)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    if not lines:
        fail("driver printed no result")
    try:
        parse_result(lines[-1])
    except ValueError as e:
        fail("bad result line: %s" % e)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
