#!/usr/bin/env python3
"""perfbench runner: build the benchmark from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which pulls in the beepkit library
from the parent directory) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the perfbench binary with a fresh
scratch directory for its JSONL files and checkpoint journals. The
scratch directory is deleted afterwards, whether the run succeeded or
not. Build output goes to stderr; the binary's output is relayed to
stdout, whose last line is the JSON result. The traced run (--trace 1)
also leaves a Chrome trace at <build dir>/trace-<workload>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-sweep", "xl-early", "giant-ckpt")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary directory or None."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return out_dir


def run_self_test(out_dir):
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        return subprocess.run(
            [os.path.join(out_dir, "perfbench_checks_test"), scratch],
            timeout=RUN_TIMEOUT_S).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(out_dir, args):
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", scratch]
    if args.trace == 1:
        command += ["--trace-out",
                    os.path.join(out_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        return fail("%s exited with code %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result keys: %s" % sorted(result))
    for line in lines:
        print(line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the output-check self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the library from the sources beside it.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("beepkit sources (CMakeLists.txt, src/) not found in "
                    + ROOT)
    out_dir = build(build_dir())
    if out_dir is None:
        return fail("build failed")
    if args.self_test:
        return run_self_test(out_dir)
    return run_workload(out_dir, args)


if __name__ == "__main__":
    sys.exit(main())
