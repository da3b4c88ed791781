#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark, pair by pair.

    python3 scripts/bench_compare.py --parent DIR --change DIR
        [--workloads grid_cold,calib_cold] [--pairs 10] [--seed 1]
        [--seconds 25] [--trace 0|1] [--json OUT]
    python3 scripts/bench_compare.py --self-test

For each workload it runs `ambench/run.py` of each checkout N times,
alternating which side runs first, with the same seed and run length on
both sides. Per metric it prints each side's median and quartiles, how
many pairs the change won (ties count for neither side), and the
change/parent ratio of the medians. Metric names, directions and bounds
come from the change checkout's BENCHMARK.json; --trace 1 compares the
per-layer metrics of traced runs instead of the end-to-end ones. --json
writes the same tables, every run's value and a host descriptor (CPU
model, CPU count, kernel); absolute levels drift from host to host, so a
committed report records where its numbers came from, and the gate stays
the within-session ratio.

The verdict column applies the gain rule of the repository's measurement
protocol: a gain holds when the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range. Otherwise an end-to-end metric is "within"
its bound when the change's median is no worse than the parent's by more
than the bound, "unresolved" when it is worse but the parent's own spread
is wider than the bound, and "WORSE" otherwise.

--self-test checks the statistics and the verdicts on canned numbers and
runs no benchmark.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def summarize(parent, change, direction, bound=None):
    """Compares paired runs of one metric. parent[i] and change[i] are pair i."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    pairs = len(parent)
    iqr = p3 - p1
    gain = (wins * 10 >= pairs * 9 and better(cm, pm, direction)
            and abs(cm - pm) > iqr)
    if gain:
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    else:
        worse_by = (cm - pm) if direction == "lower" else (pm - cm)
        limit = abs(pm) * bound
        if worse_by <= limit:
            verdict = "within"
        elif iqr > limit:
            verdict = "unresolved"
        else:
            verdict = "WORSE"
    return {
        "parent": [p1, pm, p3],
        "change": [c1, cm, c3],
        "wins": wins,
        "pairs": pairs,
        "ratio": cm / pm if pm else float("nan"),
        "verdict": verdict,
    }


def order(pairs):
    """Which side runs first in each pair: parent, change, parent, ..."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def run_once(checkout, workload, args):
    cmd = [sys.executable, os.path.join(checkout, "ambench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_compare: {' '.join(cmd)} failed in {checkout} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench_compare: {workload} outputs wrong in {checkout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def host():
    """What the numbers were measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "kernel": f"{platform.system()} {platform.release()}"}


def fmt(v):
    return f"{v:.4g}"


def compare(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = spec[kind]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    side_dir = {"parent": args.parent, "change": args.change}
    report = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, sides in enumerate(order(args.pairs)):
            for side in sides:
                runs[side].append(run_once(side_dir[side], workload, args))
            print(f"bench_compare: {workload} pair {i + 1}/{args.pairs}",
                  file=sys.stderr, flush=True)
        rows = {}
        for m in metrics:
            name = m["name"]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            rows[name] = summarize(parent, change, m["better"], m.get("bound"))
            rows[name]["runs"] = {"parent": parent, "change": change}
        report[workload] = rows
        print(f"\n{workload} (seed {args.seed}, {args.seconds} s, "
              f"{args.pairs} pairs)")
        print("  metric                             parent median [q1, q3]"
              "          change median [q1, q3]    wins  change/parent"
              "  verdict")
        for name, r in rows.items():
            p, c = r["parent"], r["change"]
            print(f"  {name:<34} {fmt(p[1]):>9} [{fmt(p[0])}, {fmt(p[2])}]"
                  f"  {fmt(c[1]):>9} [{fmt(c[0])}, {fmt(c[2])}]"
                  f"  {r['wins']:>2}/{r['pairs']}  {r['ratio']:.3f}"
                  f"  {r['verdict']}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"host": host(), "seed": args.seed,
                       "seconds": args.seconds, "pairs": args.pairs,
                       "trace": args.trace, "workloads": report}, f, indent=1)
    return 0


def self_test():
    checks = []

    def check(what, ok):
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    check("quartiles of 1..9", quartiles(list(range(1, 10))) == (3, 5, 7))
    check("quartiles of one run", quartiles([4.0]) == (4.0, 4.0, 4.0))
    check("pairs alternate which side runs first",
          order(3) == [("parent", "change"), ("change", "parent"),
                       ("parent", "change")])
    parent = [0.80, 0.78, 0.82, 0.79, 0.81, 0.83, 0.77, 0.80, 0.84, 0.79]
    faster = [0.62, 0.61, 0.64, 0.60, 0.63, 0.62, 0.65, 0.61, 0.62, 0.63]
    s = summarize(parent, faster, "lower", 0.25)
    check("10 of 10 wins with a gap beyond the IQR is a gain",
          s["wins"] == 10 and s["verdict"] == "gain"
          and abs(s["ratio"] - 0.62 / 0.80) < 1e-9)
    eight = faster[:8] + [0.90, 0.95]
    s = summarize(parent, eight, "lower", 0.25)
    check("8 of 10 wins is no gain", s["wins"] == 8 and s["verdict"] == "within")
    close = [p - 0.001 for p in parent]
    s = summarize(parent, close, "lower", 0.25)
    check("10 wins inside the parent's IQR is no gain",
          s["wins"] == 10 and s["verdict"] == "within")
    tied = list(parent)
    tied[0] = faster[0]
    s = summarize(parent, tied, "lower", 0.25)
    check("ties count for neither side", s["wins"] == 1)
    slower = [p * 1.3 for p in parent]
    check("30% slower is beyond a 25% bound",
          summarize(parent, slower, "lower", 0.25)["verdict"] == "WORSE")
    check("5% more memory is within a 10% bound",
          summarize([20.0] * 10, [21.0] * 10, "lower", 0.1)["verdict"]
          == "within")
    noisy = [0.5, 1.5] * 5
    check("a parent spread wider than the bound leaves it unresolved",
          summarize(noisy, [1.4] * 10, "lower", 0.25)["verdict"]
          == "unresolved")
    check("higher-is-better metrics win upward",
          summarize([0.9] * 10, [1.0] * 10, "higher", 0.01)["verdict"]
          == "gain")
    check("per-layer metrics have no bound",
          summarize([2.0] * 10, [3.0] * 10, "lower")["verdict"] == "-")
    h = host()
    check("the host descriptor names a CPU model, a CPU count and a kernel",
          set(h) == {"cpu_model", "cpu_count", "kernel"}
          and all(h.values()))
    return 0 if all(checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
