#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload fig5_gnutella --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
propsim's libraries plus the benchmark (Release, CMake + Ninja) into the
build directory: $CARGO_TARGET_DIR when set, else .bench_build, relative
to the repository root. Later calls only rebuild what changed. Build
output goes to stderr; stdout carries the benchmark's metric lines and,
last, its one-line JSON result. The exit code is the benchmark's: 0 when
every run's output passed the check, 1 when one did not or the program
crashed, 2 on a usage or build error. With --trace 1 the spans of the
last traced run are written to <build dir>/spans/<workload>-seed<seed>.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    """Configure on first use, then build the perfbench target."""
    log = sys.stderr
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=log, stderr=log).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20070901)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--root", ROOT,
           "--reference",
           os.path.join(BENCH_DIR, "reference", args.workload + ".json")]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    if code < 0:
        # The program died on a signal in its first run (runs of one seed
        # are deterministic): report that run as a failed operation.
        print("perfbench: the benchmark process died on signal %d" % -code,
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
