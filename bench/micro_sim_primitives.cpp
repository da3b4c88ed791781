// google-benchmark microbenchmarks for the simulator's hot primitives:
// cache lookups, hierarchy walks, distribution sampling. These guard the
// simulation throughput that makes the full-figure sweeps laptop-feasible.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "model/distributions.hpp"
#include "sim/engine.hpp"
#include "sim/memory_system.hpp"

namespace {

void BM_CacheHit(benchmark::State& state) {
  am::sim::Cache cache({32 * 1024, 64, 8, "L1"});
  cache.access(42, 0);
  for (auto _ : state) benchmark::DoNotOptimize(cache.access(42, 0).hit);
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissEvict(benchmark::State& state) {
  am::sim::Cache cache({32 * 1024, 64, 8, "L1"});
  am::sim::Addr line = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.access(line++, 0).evicted);
}
BENCHMARK(BM_CacheMissEvict);

// The headline L1-probe workload tracked by scripts/bench_engine.py: an
// 8-byte sequential walk over an L1-resident buffer — every access is an
// L1 hit, the access mix the inline probe exists for. Every access
// advances simulated time by exactly l1_latency, so simulated cycles/sec
// is items/sec x l1_latency.
void BM_L1HitSequential(benchmark::State& state) {
  const auto cfg = am::sim::MachineConfig::xeon20mb_scaled(16);
  am::sim::MemorySystem ms(cfg);
  const std::uint64_t bytes = cfg.l1.size_bytes;  // power of two
  const am::sim::Addr base = ms.alloc(bytes, bytes);
  am::sim::Cycles now = 0;
  std::uint64_t off = 0;
  for (auto _ : state) {
    const auto res =
        ms.access(0, base + off, am::sim::AccessKind::kLoad, now);
    now = res.complete;
    off = (off + 8) & (bytes - 1);
    benchmark::DoNotOptimize(res.complete);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L1HitSequential);

void BM_HierarchyWalkRandom(benchmark::State& state) {
  auto cfg = am::sim::MachineConfig::xeon20mb_scaled(
      static_cast<std::uint32_t>(state.range(0)));
  cfg.prefetcher.enabled = state.range(1) != 0;
  am::sim::MemorySystem ms(cfg);
  const am::sim::Addr base = ms.alloc(cfg.l3.size_bytes * 2);
  const std::uint64_t lines = cfg.l3.size_bytes * 2 / 64;
  am::Rng rng(7);
  am::sim::Cycles now = 0;
  for (auto _ : state) {
    const auto res = ms.access(0, base + rng.bounded(lines) * 64,
                               am::sim::AccessKind::kLoad, now);
    now = res.complete;
    benchmark::DoNotOptimize(res.level);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyWalkRandom)->Args({16, 0})->Args({16, 1})->Args({1, 0});

// The CSThr cache-walk workload tracked by scripts/bench_engine.py: random
// load-then-store pairs over a buffer 8x the L2 but a quarter of the L3,
// warmed into the L3 first. Nearly every load misses both private caches
// and hits the L3, and its fills evict lines the previous stores dirtied,
// so each pair pays the L3 hit plus the dirty-victim write-backs
// (Cache::mark_dirty) into the L2 and the L3 — the path the CSThr
// interference agent exercises. Items are accesses, two per pair.
void BM_CsthrReadModifyWrite(benchmark::State& state) {
  auto cfg = am::sim::MachineConfig::xeon20mb_scaled(16);
  am::sim::MemorySystem ms(cfg);
  const std::uint64_t bytes = cfg.l2.size_bytes * 8;
  const std::uint64_t lines = bytes / 64;
  const am::sim::Addr base = ms.alloc(bytes);
  am::sim::Cycles now = 0;
  for (std::uint64_t line = 0; line < lines; ++line)
    now = ms.access(0, base + line * 64, am::sim::AccessKind::kLoad, now)
              .complete;
  am::Rng rng(13);
  for (auto _ : state) {
    const am::sim::Addr addr = base + rng.bounded(lines) * 64;
    now = ms.access(0, addr, am::sim::AccessKind::kLoad, now).complete;
    now = ms.access(0, addr, am::sim::AccessKind::kStore, now).complete;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CsthrReadModifyWrite);

// The memory-backend-path workload tracked by scripts/bench_engine.py:
// a 64-byte-strided walk over a buffer 8x the (scaled) L3, so nearly every
// access misses through to the backend — host cost is dominated by the
// hierarchy walk plus the backend's scheduling arithmetic, which is what
// the banked model adds. Arg: MachineConfig::mem_backend, channel (0) /
// banked ddr4 (1).
void BM_DramBoundStream(benchmark::State& state) {
  auto cfg = am::sim::MachineConfig::xeon20mb_scaled(16);
  if (state.range(0) != 0) am::sim::apply_mem_backend(cfg, "ddr4");
  am::sim::MemorySystem ms(cfg);
  const std::uint64_t bytes = cfg.l3.size_bytes * 8;
  const std::uint64_t lines = bytes / 64;
  const am::sim::Addr base = ms.alloc(bytes);
  am::sim::Cycles now = 0;
  std::uint64_t line = 0;
  for (auto _ : state) {
    const auto res = ms.access(0, base + line * 64,
                               am::sim::AccessKind::kLoad, now);
    now = res.complete;
    line = (line + 1) % lines;
    benchmark::DoNotOptimize(res.complete);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramBoundStream)->Arg(0)->Arg(1);

// The L1-miss/L2-hit band workload tracked by scripts/bench_engine.py: ways+1
// lines strided to share one L1 set (cyclic LRU -> 100% L1 misses) while
// owning distinct L2 sets (the L2 is enlarged 8x so the strides spread),
// each warm-placed at the deepest way behind 7 fillers, where a set scan
// would probe every filler tag first; the L2's line->slot table resolves
// each access in one compare.
void BM_L2HitBand(benchmark::State& state) {
  auto cfg = am::sim::MachineConfig::xeon20mb_scaled(16);
  cfg.l2.size_bytes *= 8;  // 256 L2 sets: hot lines land in distinct sets
  am::sim::MemorySystem ms(cfg);
  const std::uint64_t l1_sets = cfg.l1.num_sets();
  const std::uint64_t l2_sets = cfg.l2.num_sets();
  const std::uint32_t hot = cfg.l1.ways + 1;
  const am::sim::Addr base = ms.alloc(cfg.l2.size_bytes, cfg.l2.size_bytes);
  const auto addr_of = [&](std::uint64_t i, std::uint64_t filler) {
    // Same L1 set for every i (stride = l1 set count); same L2 set for
    // every filler of a given i (stride = l2 set count).
    return base + (i + filler * l2_sets) * l1_sets * 64;
  };
  am::sim::Cycles now = 0;
  // Warm: 7 fillers then the hot line per set, so the hot line sits at
  // the set's deepest way with the filler tags probed before it.
  for (std::uint64_t i = 0; i < hot; ++i) {
    for (std::uint64_t f = 1; f < cfg.l2.ways; ++f)
      now = ms.access(0, addr_of(i, f), am::sim::AccessKind::kLoad, now)
                .complete;
    now = ms.access(0, addr_of(i, 0), am::sim::AccessKind::kLoad, now)
              .complete;
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto res =
        ms.access(0, addr_of(i, 0), am::sim::AccessKind::kLoad, now);
    now = res.complete;
    i = i + 1 == hot ? 0 : i + 1;
    benchmark::DoNotOptimize(res.complete);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2HitBand);

// The access_batch software-pipelining workload tracked by
// scripts/bench_engine.py: 64-access random batches over a 4x-L3 buffer,
// the miss-heavy shape the line-fill-buffer window models. The pipelining
// (next access's L1 set prefetched while the current one retires) has no
// toggle — it cannot change simulated results — so this tracks absolute
// batch throughput.
void BM_BatchPipelined(benchmark::State& state) {
  auto cfg = am::sim::MachineConfig::xeon20mb_scaled(16);
  am::sim::MemorySystem ms(cfg);
  const std::uint64_t bytes = cfg.l3.size_bytes * 4;
  const std::uint64_t lines = bytes / 64;
  const am::sim::Addr base = ms.alloc(bytes);
  am::Rng rng(11);
  std::vector<am::sim::Addr> batch(64);
  am::sim::Cycles now = 0;
  for (auto _ : state) {
    for (auto& a : batch) a = base + rng.bounded(lines) * 64;
    now = ms.access_batch(0, batch, am::sim::AccessKind::kLoad, now);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_BatchPipelined);

// Engine construction, tracked by scripts/bench_engine.py: build and
// destroy a 12-node Xeon20MB (24 sockets, 192 cores) at the given scale.
// Every run pays it once per point, and caches and prefetchers size their
// arrays at first use, so it should not grow with the scale.
void BM_EngineConstruct(benchmark::State& state) {
  const auto cfg = am::sim::MachineConfig::xeon20mb_scaled(
      static_cast<std::uint32_t>(state.range(0)), 12);
  for (auto _ : state) {
    am::sim::Engine engine(cfg);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(BM_EngineConstruct)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_DistributionSample(benchmark::State& state) {
  const auto dists = am::model::AccessDistribution::table2(1 << 20);
  const auto& dist = dists[static_cast<std::size_t>(state.range(0))];
  am::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(dist.sample(rng));
  state.SetLabel(dist.name());
}
BENCHMARK(BM_DistributionSample)->DenseRange(0, 9);

void BM_EngineStepOverhead(benchmark::State& state) {
  // Measures raw per-access engine cost with a same-line walker (the
  // L1 probe's best case: 100% table hits).
  am::sim::MemorySystem ms(am::sim::MachineConfig::xeon20mb_scaled(16));
  const am::sim::Addr addr = ms.alloc(64);
  am::sim::Cycles now = 0;
  for (auto _ : state) {
    const auto res = ms.access(0, addr, am::sim::AccessKind::kLoad, now);
    now = res.complete;
    benchmark::DoNotOptimize(res.complete);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineStepOverhead);

}  // namespace
