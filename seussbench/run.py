#!/usr/bin/env python3
"""Build and run the repository benchmark (seussbench/bench.ml).

Run from the root of a checkout:

    python3 seussbench/run.py --workload hot_zipf --seed 1 --seconds 20 \
        --trace 0
    python3 seussbench/run.py --all --seed 1 --seconds 20
    python3 seussbench/run.py --self-test

The program is built from source with dune (shared cache off, so the
build reads and writes only inside the checkout), then run with the
same arguments. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. --self-test also
checks that the metrics the program prints match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "seussbench", "bench.exe")


def die(msg, code=2):
    print("seussbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("neither dune nor opam is on PATH")


def build():
    for need in ("dune-project", "lib", os.path.join("seussbench", "dune")):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    cmd = dune() + ["build", "--root", ".", "--cache=disabled", "./" + EXE]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("build failed", 1)


def check_declared():
    """The program's metric names and units must match BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    out = subprocess.run(
        [EXE, "--list-metrics"], stdout=subprocess.PIPE, check=True, text=True
    ).stdout
    printed = json.loads(out.strip().splitlines()[-1])
    problems = []
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in declared[key]]
        if printed[key] != want:
            problems.append("%s metrics differ from BENCHMARK.json" % key)
    if printed["workloads"] != [w["name"] for w in declared["workloads"]]:
        problems.append("workloads differ from BENCHMARK.json")
    for p in problems:
        print("seussbench self-test: " + p)
    return not problems


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        ok = check_declared()
        code = subprocess.run([EXE, "--self-test"]).returncode
        sys.exit(0 if ok and code == 0 else 1)
    sys.exit(subprocess.run([EXE] + args).returncode)


if __name__ == "__main__":
    main()
