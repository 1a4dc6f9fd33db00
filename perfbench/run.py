#!/usr/bin/env python3
"""Build and run the dosc benchmark.

    python3 perfbench/run.py --workload <train|eval|sim|serve> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt, which compiles the repository's own libraries)
into $CARGO_TARGET_DIR, or .bench_build when that is unset. Build output
goes to standard error; the last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "eval", "sim", "serve")
RUN_TIMEOUT_S = 170


def source_tag():
    """The commit when run from a git checkout, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "commit " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256 " + digest.hexdigest()[:16]


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no dosc sources next to the benchmark", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    print(f"# source {source_tag()}", flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(HERE, "data")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: the run printed no result", file=sys.stderr)
        return 3
    if run.returncode != 0 or not result.get("correct", False):
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
