#!/usr/bin/env python3
"""Builds and runs the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload perfect|wide|edit --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that compiles the library from ../src; it is
built in $CARGO_TARGET_DIR (default .bench_build) before every run, which
is a no-op when nothing changed. For one workload the last line of stdout
is the result JSON; the lines before it are a human-readable row and the
machine and build fingerprint. `--workload all` prints one row per
workload instead.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)
WORKLOADS = ("perfect", "wide", "edit")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    out = build_dir()
    subprocess.run(["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: hash the sources the benchmark builds from.
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler or "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": version,
            "build_type": cache_value("CMAKE_BUILD_TYPE"), "revision": source_revision()}


def run_one(binary, workload, seed, seconds, trace):
    # The edit workload's daemon socket is created in the working directory;
    # the build tree keeps its path short and inside the checkout.
    # Its own process group, so a timeout stops the sample children too.
    proc = subprocess.Popen([binary, "--workload", workload, "--seed", str(seed), "--seconds",
                             str(seconds), "--trace", str(trace)], cwd=os.path.dirname(binary),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    json.loads(lines[-1])
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    try:
        if args.self_test:
            return subprocess.run([build("perfbench_tests")]).returncode
        binary = build("perfbench")
        print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
        if args.workload == "all":
            for workload in WORKLOADS:
                lines = run_one(binary, workload, args.seed, args.seconds, args.trace)
                print(lines[-2])
            return 0
        lines = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
