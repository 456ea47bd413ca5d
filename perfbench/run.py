#!/usr/bin/env python3
"""Builds the lock benchmark from this checkout's sources and runs it.

One run (the last line of standard output is the result object):

    python3 perfbench/run.py --workload tcp-ring --seed 7 --seconds 10 --trace 0

Self-check, every workload briefly with every correctness check on:

    python3 perfbench/run.py --self-check

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the current directory); build output goes to standard error.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-airline", "inproc-airline", "tcp-ring")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns (binary, env)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the hlock sources (src/) are missing next to "
                 "perfbench/; nothing to build")
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, "perfbench")
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(base, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "hlock_perfbench", "-j", jobs],
                       stdout=sys.stderr, env=env, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    return os.path.join(build_dir, "hlock_perfbench"), env


def command(binary, workload, seed, seconds, trace, small=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    return cmd


def self_check(binary, env):
    """Runs every workload at self-check size in both modes and checks the
    result objects against BENCHMARK.json and golden.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []

    def run(workload, seed, trace):
        cmd = command(binary, workload, seed, 1, trace, small=True)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stdout)
        name = "%s seed=%d trace=%d" % (workload, seed, trace)
        if proc.returncode != 0:
            failures.append("%s: exit status %d" % (name, proc.returncode))
        try:
            return name, json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failures.append("%s: no result object" % name)
            return name, None

    for workload in WORKLOADS:
        for trace in (0, 1):
            name, result = run(workload, 1, trace)
            if result is None:
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: reported a correctness violation" % name)
            if result["attempted"] < 1:
                failures.append("%s: attempted nothing" % name)
            metrics = result["metrics"]
            for metric in declared[trace]:
                got = metrics.get(metric["name"])
                if got is None:
                    failures.append("%s: missing %s" % (name, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    failures.append("%s: %s has unit %s" %
                                    (name, metric["name"], got["unit"]))
                elif not math.isfinite(got["value"]) or (
                        trace == 0 and got["value"] == 0):
                    failures.append("%s: %s = %r" %
                                    (name, metric["name"], got["value"]))
            extra = set(metrics) - {m["name"] for m in declared[trace]}
            if extra:
                failures.append("%s: undeclared metrics %s" %
                                (name, sorted(extra)))
    # Exact figures recorded for their seeds.
    for entry in golden:
        name, result = run(entry["workload"], entry["seed"], 0)
        if result is None:
            continue
        for metric, value in entry["metrics"].items():
            got = result["metrics"].get(metric, {}).get("value")
            if got != value:
                failures.append("%s: %s = %r, recorded %r" %
                                (name, metric, got, value))
    for failure in failures:
        print("FAIL", failure)
    print("self-check %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    binary, env = build()
    if args.self_check:
        return self_check(binary, env)
    cmd = command(binary, args.workload, args.seed, args.seconds, args.trace)
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
