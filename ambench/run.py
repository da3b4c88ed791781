#!/usr/bin/env python3
"""Run one workload of the repository's end-to-end benchmark.

    python3 ambench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ambench/run.py --self-test

Run from the root of a checkout. On first use it configures and builds the
`ambench` executable (CMake, Release) into .bench_build/ambench; later runs
only let CMake confirm it is up to date. It then runs the workload, checks
that the metrics printed are exactly those BENCHMARK.json declares, and
prints the JSON result as the last line of stdout. The exit code is
non-zero when the sources are missing, the build fails, an output digest
disagrees, or the result does not match BENCHMARK.json.

--self-test builds, checks that the metric names and units the benchmark
prints match BENCHMARK.json, and runs `ambench selftest`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ambench")
WORK = os.path.join(ROOT, ".bench_build", "ambench-work")
EXE = os.path.join(BUILD, "ambench")
EXPECTED = os.path.join(HERE, "expected_digests.tsv")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"repository sources not found in {ROOT}; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ambench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {kind: {m["name"]: m["unit"] for m in spec[kind]}
               for kind in ("end_to_end", "per_layer")}
    return spec, metrics


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not "
             f"correct, attempted, failed, metrics")
    want = declared()[1]["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in want if n in got and got[n] != want[n])}")


def run(args):
    build()
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--expected", EXPECTED]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ambench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"ambench printed no result (exit {proc.returncode})")
    check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)
    return proc.returncode


def self_test():
    build()
    spec, metrics = declared()
    listed = subprocess.run([EXE, "metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    got = {"end_to_end": {}, "per_layer": {}, "workload": {}}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        got[kind][name] = unit
    ok = True
    for kind in ("end_to_end", "per_layer"):
        same = got[kind] == metrics[kind]
        print(f"{'ok  ' if same else 'FAIL'} {kind} metric names and units "
              f"match BENCHMARK.json")
        ok &= same
    same = set(got["workload"]) == {w["name"] for w in spec["workloads"]}
    print(f"{'ok  ' if same else 'FAIL'} workloads match BENCHMARK.json")
    ok &= same
    sys.stdout.flush()
    ok &= subprocess.run([EXE, "selftest", "--work-dir", WORK]).returncode == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
