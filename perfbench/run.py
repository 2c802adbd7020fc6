#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, print the result.

    python3 perfbench/run.py --workload fleet-inproc|gateway-paced \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the SIFT
libraries, `siftctl` and the `perfbench` program into $CARGO_TARGET_DIR (or
.bench_build). The program's output is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. Spans of traced
runs land in .bench_out/. Exits non-zero, without a result, when the sources
are missing or the build fails, and non-zero when a correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-inproc", "gateway-paced")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/siftctl.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"missing {needed}; the benchmark builds the repository from source")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench", "siftctl"]
    return subprocess.run(compile_, stdout=sys.stderr, cwd=ROOT).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("build failed")
        return 2

    # Relative paths keep the gateway's unix socket path short.
    work_dir = os.path.join(".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--siftctl", os.path.join(build_dir, "siftctl"),
               "--work-dir", work_dir, "--out-dir", ".bench_out"]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} failed (exit {proc.returncode})")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        sys.stdout.write(proc.stdout)
        log("result object malformed or incorrect")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
