#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the program's library from src/ plus the benchmark driver)
under $CARGO_TARGET_DIR, default .bench_build; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is non-zero, with no result
line, when the build fails; it is the benchmark's own code otherwise.
--self-test builds and runs the tests of the benchmark's own code.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A benchmark run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", out, "--target", target, "-j", jobs]]
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec.get(key, [])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        print(lines[-1], file=sys.stderr)
        return proc.returncode
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(set(want) - set(result["metrics"])),
                            sorted(set(result["metrics"]) - set(want))),
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
