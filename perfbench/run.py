#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload dhfr-512 --seed 1 --seconds 20 --trace 0

Builds perfbench (a Go module of its own beside the repository's) into
.bench_build with every Go cache inside the checkout, runs the workload in
a fresh process whose standard output goes to this script's standard
error, and prints the metrics, then the result object as the last line of
standard output. Exits non-zero, without a result, when the repository's
sources are missing or the build or run fails.
"""
import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record this run's outputs into perfbench/expected.json")
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        fail("run from the repository root: go.mod and internal/ are missing here")
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")

    result = os.path.join(build, "result-%d.json" % os.getpid())
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-result", result, "-work", os.path.join(build, "work-%d" % os.getpid())]
    if args.record:
        cmd.append("-record")
    try:
        # The program's own prints go to stderr: stdout carries only the
        # metric stream.
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        fail("run failed with exit code %d" % r.returncode)
    with open(result) as f:
        res = json.load(f)
    os.remove(result)
    for name, m in res["metrics"].items():
        print("%-40s %.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(res, sort_keys=True))


if __name__ == "__main__":
    main()
