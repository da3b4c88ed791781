#!/usr/bin/env python3
"""Benchmark raw engine speed on pinned micro workloads.

Tracks the simulator's hot path — `sim::MemorySystem::access` under
`sim::Engine` — in BENCH_engine.json, from pinned micro_sim_primitives
workloads (google-benchmark JSON), each reported as absolute throughput:

  * BM_L1HitSequential (8-byte sequential walk over an L1-resident
    buffer, the hit-heavy access mix the inline L1 probe exists for) and
    BM_EngineStepOverhead (same-line walker, the probe's best case).
    Every access advances simulated time by exactly l1_latency cycles, so
    simulated cycles/sec is accesses/sec x l1_latency.
  * BM_L2HitBand (the L1-miss/L2-hit band, resolved by the L2's
    line->slot table).
  * BM_DramBoundStream (L3-miss-heavy stream): backend-path throughput
    under the channel pipe (/0) and the banked ddr4 backend (/1),
    reported with their ratio as `banked_cost`.
  * BM_BatchPipelined: access_batch throughput.
  * BM_HierarchyWalkRandom/16 (a random walk over 2x the L3, nearly all
    misses) with the stream prefetcher off (/0) and on (/1), reported with
    `prefetcher_overhead`, ns per access on over off.
  * BM_CsthrReadModifyWrite (random load-then-store over an L3-resident
    buffer 8x the L2, the CSThr agent's access mix): the L3-hit and
    dirty-victim write-back path.
  * BM_EngineConstruct/{1,16,64} builds and destroys a 12-node engine
    at scale 1, 16 and 64, reported as
    micro.BM_EngineConstruct.<scale>.ms.

Simulated results are checked elsewhere (tests/sim/hierarchy_diff_test,
the smoke.fig9_backend_identity golden); this script measures speed only.

Usage:
  scripts/bench_engine.py --build build/release [--out BENCH_engine.json]

Exit status: 0 on success (the numbers are recorded, never judged — CI
wires this step non-blocking), 1 when micro_sim_primitives is missing or
fails.
"""

import argparse
import json
import pathlib
import subprocess
import sys

# The Xeon20MB preset's L1 latency: geometry-preserving scaling keeps it,
# and both pinned L1 micro workloads are 100% L1 hits.
L1_LATENCY_CYCLES = 4

MICRO_FILTER = ("BM_L1HitSequential|BM_EngineStepOverhead|BM_L2HitBand"
                "|BM_DramBoundStream|BM_BatchPipelined"
                "|BM_HierarchyWalkRandom/16/|BM_CsthrReadModifyWrite"
                "|BM_EngineConstruct")

# google-benchmark time units, in milliseconds.
MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


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
        out[stem] = {
            "accesses_per_second": round(per_name[stem]),
            "sim_cycles_per_second": round(per_name[stem] * L1_LATENCY_CYCLES),
        }
    # The L1-miss/L2-hit band, with the hot line at the set's deepest way.
    out["BM_L2HitBand"] = {
        "accesses_per_second": round(per_name["BM_L2HitBand"]),
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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build", default="build/release",
                    help="build tree holding micro_sim_primitives")
    ap.add_argument("--out", default="BENCH_engine.json")
    args = ap.parse_args()

    micro = pathlib.Path(args.build) / "bench" / "micro_sim_primitives"
    if not micro.exists():
        sys.exit(f"missing binary: {micro} (google-benchmark is optional "
                 "at build time; install it and rebuild)")
    try:
        micro_report = run_micro(micro)
    except RuntimeError as err:
        sys.exit(str(err))
    report = {
        "benchmark": "engine hot path: pinned micro workloads",
        "l1_latency_cycles": L1_LATENCY_CYCLES,
        "micro": micro_report,
        "prefetcher_overhead_le_1_5x":
            micro_report["BM_HierarchyWalkRandom"]["prefetcher_overhead"]
            <= 1.5,
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
