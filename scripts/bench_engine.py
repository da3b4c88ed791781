#!/usr/bin/env python3
"""Benchmark raw engine speed and the filter fast-path payoffs.

Tracks the simulator's hot path — `sim::MemorySystem::access` under
`sim::Engine` — in BENCH_engine.json:

  * pinned micro_sim_primitives workloads (google-benchmark JSON):
    BM_L1HitSequential (8-byte sequential walk over an L1-resident
    buffer, the hit-heavy access mix the L1 filter exists for) and
    BM_EngineStepOverhead (same-line walker, the filter's best case),
    each with MachineConfig::l1_filter off (/0) vs on (/1); BM_L2HitBand
    (the L1-miss/L2-hit band) with MachineConfig::l2_filter off (/0) vs
    on (/1). Every access in the L1 workloads advances simulated time by
    exactly l1_latency cycles, so simulated cycles/sec is
    accesses/sec x l1_latency. BM_DramBoundStream (L3-miss-heavy
    stream) additionally tracks backend-path throughput: channel pipe
    (/0) vs banked ddr4 backend (/1), reported as `banked_cost`; and
    BM_BatchPipelined tracks absolute access_batch throughput (its
    software pipelining has no toggle — it cannot change results).
    BM_HierarchyWalkRandom/16 (a random walk over 2x the L3, nearly all
    misses) with the stream prefetcher off (/0) vs on (/1) gives
    `prefetcher_overhead`, ns per access on over off.
    BM_CsthrReadModifyWrite (random load-then-store over an L3-resident
    buffer 8x the L2, the CSThr agent's access mix) tracks the absolute
    throughput of the L3-hit and dirty-victim write-back path.
    BM_EngineConstruct/{1,16,64} builds and destroys a 12-node engine
    at scale 1, 16 and 64, reported as
    micro.BM_EngineConstruct.<scale>.ms.
  * the fig9 smoke sweep end to end, fast paths off vs on (both filter
    toggles together), with a byte-compare of the emitted tables: the
    filters are host-speed knobs only, so the figure output must be
    identical to the last byte. This identity gate ALWAYS runs — --quick
    trims only the micro workloads — and a skipped or failed compare is
    a nonzero exit, never a silently regenerated JSON.

Usage:
  scripts/bench_engine.py --build build/release [--out BENCH_engine.json]
                          [--quick]

Exit status: 0 on success (a sub-2x speedup is recorded in the JSON, not
fatal — CI wires this step non-blocking), 1 when a run fails or the fig9
outputs differ across the toggles (that is a correctness bug; the
blocking smoke.fig9_filter_identity / smoke.fig9_l2_filter_identity
ctest entries guard it too).
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

# The Xeon20MB preset's L1 latency: geometry-preserving scaling keeps it,
# and both pinned L1 micro workloads are 100% L1 hits.
L1_LATENCY_CYCLES = 4

MICRO_FILTER = ("BM_L1HitSequential|BM_EngineStepOverhead|BM_L2HitBand"
                "|BM_DramBoundStream|BM_BatchPipelined"
                "|BM_HierarchyWalkRandom/16/|BM_CsthrReadModifyWrite"
                "|BM_EngineConstruct")

# google-benchmark time units, in milliseconds.
MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
FIG9_ARGS = [
    "--scale", "64", "--ranks", "8", "--steps", "1", "--quick",
    "--max-cs", "1", "--max-bw", "1",
]


def run_micro(binary):
    proc = subprocess.run(
        [str(binary), f"--benchmark_filter={MICRO_FILTER}",
         "--benchmark_format=json"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise RuntimeError(f"micro benchmarks failed ({proc.returncode})")
    benchmarks = json.loads(proc.stdout)["benchmarks"]
    per_name = {
        b["name"]: b["items_per_second"]
        for b in benchmarks
        if "items_per_second" in b
    }
    out = {}
    for stem in ("BM_L1HitSequential", "BM_EngineStepOverhead"):
        off, on = per_name[f"{stem}/0"], per_name[f"{stem}/1"]
        out[stem] = {
            "accesses_per_second_filter_off": round(off),
            "accesses_per_second_filter_on": round(on),
            "sim_cycles_per_second_filter_off": round(off * L1_LATENCY_CYCLES),
            "sim_cycles_per_second_filter_on": round(on * L1_LATENCY_CYCLES),
            "filter_speedup": round(on / off, 3),
        }
    # The L2 filter band: L1-miss/L2-hit accesses with the hot line at the
    # set's deepest way, so off = full-depth L2 scan, on = one table probe.
    off, on = per_name["BM_L2HitBand/0"], per_name["BM_L2HitBand/1"]
    out["BM_L2HitBand"] = {
        "accesses_per_second_filter_off": round(off),
        "accesses_per_second_filter_on": round(on),
        "filter_speedup": round(on / off, 3),
    }
    # Backend-path throughput: an L3-miss-heavy stream under the channel
    # pipe (/0) vs the banked ddr4 backend (/1). banked_cost < 1 is the
    # banked model's host-speed price per DRAM-bound access; tracked so a
    # backend change that quietly slows the default path shows up here.
    channel = per_name["BM_DramBoundStream/0"]
    banked = per_name["BM_DramBoundStream/1"]
    out["BM_DramBoundStream"] = {
        "accesses_per_second_channel": round(channel),
        "accesses_per_second_banked": round(banked),
        "banked_cost": round(banked / channel, 3),
    }
    # access_batch with software pipelining: absolute throughput only (the
    # host prefetch has no toggle), tracked so a batch-path regression —
    # or the pipelining rotting away — shows up as a trajectory break.
    out["BM_BatchPipelined"] = {
        "accesses_per_second": round(per_name["BM_BatchPipelined"]),
    }
    # The stream prefetcher's price on a miss-heavy random walk, where every
    # L2 miss runs on_miss and none continues a stream: ns per access with
    # the prefetcher on (/1) over off (/0). A ratio of two runs on the same
    # host, so it travels across machines.
    off = per_name["BM_HierarchyWalkRandom/16/0"]
    on = per_name["BM_HierarchyWalkRandom/16/1"]
    out["BM_HierarchyWalkRandom"] = {
        "accesses_per_second_prefetcher_off": round(off),
        "accesses_per_second_prefetcher_on": round(on),
        "prefetcher_overhead": round(off / on, 3),
    }
    # The cache walk behind CSThr: L3 hits whose fills evict dirty private
    # victims. Absolute throughput only (no toggle), tracked so the flat
    # tag arrays or the line->slot tables rotting away show up as a
    # trajectory break.
    out["BM_CsthrReadModifyWrite"] = {
        "accesses_per_second": round(per_name["BM_CsthrReadModifyWrite"]),
    }
    # What every point pays before its first access: building a 12-node
    # engine. Caches and prefetchers are sized at first use, so it should
    # stay flat across scales.
    out["BM_EngineConstruct"] = {
        b["name"].split("/")[1]: {
            "ms": round(b["real_time"] * MS_PER_UNIT[b["time_unit"]], 4),
        }
        for b in benchmarks
        if b["name"].startswith("BM_EngineConstruct/")
    }
    return out


def run_fig9(binary, filters):
    cmd = [str(binary), *FIG9_ARGS,
           "--l1-filter", filters, "--l2-filter", filters]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        raise RuntimeError(
            f"fig9 --l1-filter/--l2-filter {filters} failed "
            f"({proc.returncode})")
    return wall, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build", default="build/release",
                    help="build tree holding micro_sim_primitives and fig9")
    ap.add_argument("--out", default="BENCH_engine.json")
    ap.add_argument("--quick", action="store_true",
                    help="skip the micro workloads; the fig9 identity "
                         "byte-compare still runs and still gates the exit "
                         "status")
    args = ap.parse_args()

    build = pathlib.Path(args.build)
    micro = build / "bench" / "micro_sim_primitives"
    fig9 = build / "bench" / "fig9_mcb_degradation"
    if not fig9.exists():
        sys.exit(f"missing binary: {fig9} (build the tree first)")

    report = {
        "benchmark": "engine hot path: filter fast paths off vs on",
        "l1_latency_cycles": L1_LATENCY_CYCLES,
        "fig9_args": " ".join(FIG9_ARGS),
    }
    try:
        if args.quick:
            report["micro"] = None
            print("note: --quick, skipping micro workloads", file=sys.stderr)
        elif micro.exists():
            report["micro"] = run_micro(micro)
        else:
            # google-benchmark is optional at build time; the fig9 sweep
            # below still tracks the end-to-end trajectory.
            report["micro"] = None
            print(f"note: {micro} not built, skipping micro workloads",
                  file=sys.stderr)
        wall_off, out_off = run_fig9(fig9, "false")
        wall_on, out_on = run_fig9(fig9, "true")
    except RuntimeError as err:
        sys.exit(str(err))

    report["fig9_smoke"] = {
        "wall_seconds_filter_off": round(wall_off, 3),
        "wall_seconds_filter_on": round(wall_on, 3),
        "filter_speedup": round(wall_off / wall_on, 3) if wall_on > 0 else None,
        "output_identical": out_off == out_on,
    }
    if report["micro"]:
        hit_heavy = report["micro"]["BM_L1HitSequential"]["filter_speedup"]
        report["hit_heavy_filter_speedup_ge_2x"] = hit_heavy >= 2.0
        overhead = report["micro"]["BM_HierarchyWalkRandom"][
            "prefetcher_overhead"]
        report["prefetcher_overhead_le_1_5x"] = overhead <= 1.5
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    # Hard gate, --quick or not: a JSON regenerated without a passing
    # identity compare must never look like success.
    if report["fig9_smoke"].get("output_identical") is not True:
        sys.exit("fig9 output differs across the filter toggles: "
                 "a fast path changed simulated results")


if __name__ == "__main__":
    main()
