#!/usr/bin/env python3
"""Build the perfbench driver from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload large-order --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ there
(Release, Ninja when available) and is incremental after the first run.
The last line of standard output is the JSON result; build logs go to
standard error. The exit code is 0 for a completed run and non-zero,
with no result line, when the sources are missing, the build fails, or
the run fails or overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("large-order", "batch-mixed", "sweep-margin")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    """Configure (once) and build the driver; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no shhpass sources in {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", jobs()]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return BINARY


def source_digest():
    """sha256 over the library's build inputs (CMakeLists.txt and src/)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """HEAD of the checkout when it is a git work tree, else a digest of
    the library sources ("src:<sha256 prefix>").

    Reads .git directly so nothing outside the checkout is consulted.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "src:" + source_digest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--span-out",
                os.path.join(BUILD_DIR, f"spans-{args.workload}.json")]
    # The library reads SHHPASS_* switches from the environment (stage
    # graph, gemm width, telemetry); the benchmark measures its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHHPASS_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
