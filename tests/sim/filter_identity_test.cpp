// The fast paths (Cache::try_fast_hit through the line->slot table, and
// MachineConfig::l1_filter / l2_filter, which gate MemorySystem's L1 and
// L2 probes) are pure host-speed optimizations: every simulated outcome —
// hits, evictions, LRU victims, dirty bits, counters, completion times —
// must be bit-identical with the probes on vs off. These tests drive
// probing and scan-only twins through identical random traces and
// targeted coherence scenarios (L3 back-invalidation, prefetch-triggered
// evictions, flushes) and compare exhaustively. The filters' own
// diagnostics (Counters::l{1,2}_filter_hits /
// l{1,2}_filter_fallthroughs) are the one deliberate exception: they
// describe the toggles, not the simulation.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/memory_system.hpp"

namespace am::sim {
namespace {

// ---------------------------------------------------------------------------
// Cache-level identity: a cache accessed the way MemorySystem does
// (try_fast_hit, fall through to access) against a twin that only ever
// calls access(), whose hit probe is a plain set scan.

void expect_outcomes_equal(const Cache::AccessOutcome& a,
                           const Cache::AccessOutcome& b, int step) {
  EXPECT_EQ(a.hit, b.hit) << "step " << step;
  EXPECT_EQ(a.evicted, b.evicted) << "step " << step;
  EXPECT_EQ(a.evicted_dirty, b.evicted_dirty) << "step " << step;
  EXPECT_EQ(a.evicted_line, b.evicted_line) << "step " << step;
  EXPECT_EQ(a.evicted_sharers, b.evicted_sharers) << "step " << step;
}

// (size_bytes, ways, insert_age, random_replacement)
using Geometry = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t, bool>;

class FilterIdentityProperty : public ::testing::TestWithParam<Geometry> {
 protected:
  CacheConfig config() const {
    const auto [size, ways, insert_age, random] = GetParam();
    CacheConfig c{size, 64, ways, "identity"};
    c.insert_age = insert_age;
    c.replacement = random ? Replacement::kRandom : Replacement::kLru;
    return c;
  }
};

TEST_P(FilterIdentityProperty, RandomTraceBitIdentical) {
  Cache fast(config());
  Cache reference(config());

  Rng rng(0xf117e7);
  const std::uint64_t line_space = config().num_lines() * 3;
  std::uint64_t fast_hits = 0;
  for (int step = 0; step < 40000; ++step) {
    const Addr line = rng.bounded(line_space);
    switch (rng.bounded(16)) {
      case 0: {  // invalidation (the L3 back-invalidation hook)
        EXPECT_EQ(fast.invalidate(line), reference.invalidate(line))
            << "step " << step;
        break;
      }
      case 1: {
        EXPECT_EQ(fast.mark_dirty(line), reference.mark_dirty(line))
            << "step " << step;
        break;
      }
      case 2: {
        fast.touch(line);
        reference.touch(line);
        break;
      }
      case 3: {
        EXPECT_EQ(fast.contains(line), reference.contains(line))
            << "step " << step;
        break;
      }
      default: {  // access, the hot path: the fast twin probes first
        const auto owner = static_cast<std::uint16_t>(rng.bounded(4));
        const auto sharer_bit = 1u << rng.bounded(8);
        const bool is_store = rng.bounded(4) == 0;
        const auto ref = reference.access(line, owner, sharer_bit, is_store);
        if (fast.try_fast_hit(line, sharer_bit, is_store)) {
          // A fast hit must correspond to a plain hit with no eviction.
          ++fast_hits;
          EXPECT_TRUE(ref.hit) << "step " << step;
          EXPECT_FALSE(ref.evicted) << "step " << step;
        } else {
          expect_outcomes_equal(
              fast.access(line, owner, sharer_bit, is_store), ref, step);
        }
        break;
      }
    }
  }
  EXPECT_GT(fast_hits, 0u);  // the probe engaged
  // The steady states must agree exactly, owner by owner.
  EXPECT_EQ(fast.resident_lines(), reference.resident_lines());
  for (std::uint16_t owner = 0; owner < 4; ++owner)
    EXPECT_EQ(fast.occupancy_lines(owner),
              reference.occupancy_lines(owner))
        << "owner " << owner;
  for (Addr line = 0; line < line_space; ++line)
    ASSERT_EQ(fast.contains(line), reference.contains(line))
        << "line " << line;
}

TEST_P(FilterIdentityProperty, FlushLeavesNoFastHit) {
  Cache cache(config());
  // Point line 0's table entry at its way, then flush: trusting the stale
  // entry would resurrect an invalid line.
  cache.access(0, 0);
  ASSERT_TRUE(cache.access(0, 0).hit);
  cache.flush();
  EXPECT_FALSE(cache.try_fast_hit(0, 0, false));
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.access(0, 0).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FilterIdentityProperty,
    ::testing::Values(
        Geometry{32 * 1024, 8, 0, false},    // L1-like
        Geometry{256 * 1024, 8, 0, false},   // L2-like
        Geometry{24 * 1024, 8, 0, false},    // non-power-of-two sets (48)
        Geometry{64 * 1024, 16, 512, false},  // SRRIP-style insertion
        Geometry{64 * 1024, 4, 0, true},     // random replacement
        Geometry{8 * 64, 8, 0, false}));     // fully associative (1 set)

// ---------------------------------------------------------------------------
// MemorySystem-level identity: full-hierarchy twins, filter on vs off.

void expect_architectural_counters_equal(const Counters& a, const Counters& b,
                                         CoreId core) {
  EXPECT_EQ(a.loads, b.loads) << "core " << core;
  EXPECT_EQ(a.stores, b.stores) << "core " << core;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << "core " << core;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << "core " << core;
  EXPECT_EQ(a.l3_hits, b.l3_hits) << "core " << core;
  EXPECT_EQ(a.mem_accesses, b.mem_accesses) << "core " << core;
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued) << "core " << core;
  EXPECT_EQ(a.prefetch_dropped, b.prefetch_dropped) << "core " << core;
  EXPECT_EQ(a.writebacks, b.writebacks) << "core " << core;
  EXPECT_EQ(a.bytes_from_mem, b.bytes_from_mem) << "core " << core;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << "core " << core;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "core " << core;
}

struct Twins {
  MemorySystem on;
  MemorySystem off;

  static MachineConfig cfg(std::uint32_t scale, bool filter) {
    auto c = MachineConfig::xeon20mb_scaled(scale);
    c.l1_filter = filter;
    c.l2_filter = filter;
    return c;
  }
  explicit Twins(std::uint32_t scale)
      : on(cfg(scale, true)), off(cfg(scale, false)) {}

  void expect_equal(const char* what) {
    const auto cores = on.config().total_cores();
    for (CoreId core = 0; core < cores; ++core) {
      SCOPED_TRACE(what);
      expect_architectural_counters_equal(on.counters(core),
                                          off.counters(core), core);
      EXPECT_EQ(on.l1(core).resident_lines(), off.l1(core).resident_lines());
      EXPECT_EQ(on.l2(core).resident_lines(), off.l2(core).resident_lines());
      EXPECT_EQ(on.l3_occupancy_bytes(core), off.l3_occupancy_bytes(core));
    }
    for (std::uint32_t s = 0; s < on.config().total_sockets(); ++s) {
      EXPECT_EQ(on.l3(s).resident_lines(), off.l3(s).resident_lines());
      EXPECT_EQ(on.mem_backend(s).total_bytes(),
                off.mem_backend(s).total_bytes());
      EXPECT_EQ(on.mem_backend(s).busy_until(),
                off.mem_backend(s).busy_until());
    }
  }
};

TEST(FilterIdentityMemorySystem, RandomMultiCoreTraceBitIdentical) {
  Twins twins(16);
  const auto cores = twins.on.config().total_cores();
  // A footprint several times the L3 forces L3 evictions, whose
  // back-invalidations must keep every L1 filter coherent.
  const std::uint64_t bytes = twins.on.config().l3.size_bytes * 3;
  const Addr base_on = twins.on.alloc(bytes);
  const Addr base_off = twins.off.alloc(bytes);
  ASSERT_EQ(base_on, base_off);

  Rng rng(42);
  std::vector<Cycles> now(cores, 0);
  std::vector<Addr> batch;
  for (int step = 0; step < 60000; ++step) {
    const CoreId core = static_cast<CoreId>(rng.bounded(cores));
    const auto kind =
        rng.bounded(4) == 0 ? AccessKind::kStore : AccessKind::kLoad;
    // Mix tight reuse (filter hits), strided streams (prefetcher) and
    // random far jumps (L3 pressure).
    Addr addr;
    switch (rng.bounded(4)) {
      case 0: addr = base_on + rng.bounded(512) * 8; break;
      case 1: addr = base_on + (step % 4096) * 64; break;
      default: addr = base_on + rng.bounded(bytes / 8) * 8; break;
    }
    if (rng.bounded(8) == 0) {  // batch (MLP window) path
      batch.clear();
      const auto n = 1 + rng.bounded(8);
      for (std::uint64_t i = 0; i < n; ++i)
        batch.push_back(addr + i * 192);
      const Cycles a = twins.on.access_batch(core, batch, kind, now[core]);
      const Cycles b = twins.off.access_batch(core, batch, kind, now[core]);
      ASSERT_EQ(a, b) << "batch step " << step;
      now[core] = a;
    } else {
      const AccessResult a = twins.on.access(core, addr, kind, now[core]);
      const AccessResult b = twins.off.access(core, addr, kind, now[core]);
      ASSERT_EQ(a.complete, b.complete) << "step " << step;
      ASSERT_EQ(a.level, b.level) << "step " << step;
      now[core] = a.complete;
    }
  }
  twins.expect_equal("after random trace");
  // Both filters actually engaged — otherwise this test proves nothing.
  std::uint64_t l1_filter_hits = 0, l2_filter_hits = 0;
  for (CoreId core = 0; core < cores; ++core) {
    l1_filter_hits += twins.on.counters(core).l1_filter_hits;
    l2_filter_hits += twins.on.counters(core).l2_filter_hits;
  }
  EXPECT_GT(l1_filter_hits, 0u);
  EXPECT_GT(l2_filter_hits, 0u);
  for (CoreId core = 0; core < cores; ++core) {
    EXPECT_EQ(twins.off.counters(core).l1_filter_hits, 0u);
    EXPECT_EQ(twins.off.counters(core).l1_filter_fallthroughs, 0u);
    EXPECT_EQ(twins.off.counters(core).l2_filter_hits, 0u);
    EXPECT_EQ(twins.off.counters(core).l2_filter_fallthroughs, 0u);
  }
}

TEST(FilterIdentityMemorySystem, FilterTogglesAreIndependent) {
  // The four (l1_filter, l2_filter) combinations must be pairwise
  // bit-identical — each band short-circuits independently, so one
  // filter's state must never leak into the other's outcomes.
  std::vector<std::unique_ptr<MemorySystem>> systems;
  for (const bool l1 : {false, true})
    for (const bool l2 : {false, true}) {
      auto c = MachineConfig::xeon20mb_scaled(16);
      c.l1_filter = l1;
      c.l2_filter = l2;
      systems.push_back(std::make_unique<MemorySystem>(c));
    }
  const std::uint64_t bytes = systems[0]->config().l3.size_bytes * 2;
  for (auto& ms : systems) ms->alloc(bytes);
  const Addr base = 1 << 16;  // alloc base is deterministic

  Rng rng(0x2f11);
  Cycles now = 0;
  for (int step = 0; step < 30000; ++step) {
    // L1-sized reuse windows sliding through an L3-sized footprint: a mix
    // with substantial L1-hit, L2-hit and deeper bands.
    const Addr addr =
        base + (rng.bounded(512) + (step / 64) * 8) % (bytes / 64) * 64;
    const auto kind =
        rng.bounded(4) == 0 ? AccessKind::kStore : AccessKind::kLoad;
    const AccessResult ref = systems[0]->access(0, addr, kind, now);
    for (std::size_t s = 1; s < systems.size(); ++s) {
      const AccessResult res = systems[s]->access(0, addr, kind, now);
      ASSERT_EQ(res.complete, ref.complete) << "system " << s << " step "
                                            << step;
      ASSERT_EQ(res.level, ref.level) << "system " << s << " step " << step;
    }
    now = ref.complete;
  }
  // systems[1] is (l1 off, l2 on): its L2 band engaged on its own.
  EXPECT_GT(systems[1]->counters(0).l2_filter_hits, 0u);
  EXPECT_EQ(systems[1]->counters(0).l1_filter_hits, 0u);
  // systems[2] is (l1 on, l2 off): and vice versa.
  EXPECT_GT(systems[2]->counters(0).l1_filter_hits, 0u);
  EXPECT_EQ(systems[2]->counters(0).l2_filter_hits, 0u);
  for (std::size_t s = 1; s < systems.size(); ++s) {
    const Counters& a = systems[0]->counters(0);
    const Counters& b = systems[s]->counters(0);
    expect_architectural_counters_equal(a, b, 0);
  }
}

TEST(FilterIdentityMemorySystem, BackInvalidationLeavesNoFastHit) {
  // Inclusive-L3 coherence: when L3 evicts a line some L1 holds, the
  // back-invalidation must also defeat that L1's table entry for it — a
  // stale fast hit would keep the line alive after the hierarchy dropped
  // it.
  Twins twins(64);  // smallest machine: L1 = 1 set, L3 = 20 ways x 16 sets
  const auto& cfg = twins.on.config();
  const std::uint64_t l3_lines = cfg.l3.num_lines();
  const Addr base = twins.on.alloc(cfg.l3.size_bytes * 4);
  ASSERT_EQ(base, twins.off.alloc(cfg.l3.size_bytes * 4));

  auto access_both = [&](CoreId core, Addr addr, Cycles now) {
    const AccessResult a =
        twins.on.access(core, addr, AccessKind::kLoad, now);
    const AccessResult b =
        twins.off.access(core, addr, AccessKind::kLoad, now);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.level, b.level);
    return a;
  };

  // Core 0 warms line X: second access is a filter hit.
  const Addr x = base;
  access_both(0, x, 0);
  const auto hits_before = twins.on.counters(0).l1_filter_hits;
  EXPECT_EQ(access_both(0, x, 1000).level, Level::kL1);
  EXPECT_EQ(twins.on.counters(0).l1_filter_hits, hits_before + 1);

  // Core 1 (same socket) floods the L3 until X is evicted; inclusivity
  // back-invalidates X out of core 0's L1, leaving its table entry stale.
  Cycles now = 2000;
  for (std::uint64_t i = 1; i < l3_lines * 4 && twins.on.l3(0).contains(x >> 6);
       ++i)
    now = access_both(1, base + i * 64, now).complete;
  ASSERT_FALSE(twins.on.l3(0).contains(x >> 6));
  ASSERT_FALSE(twins.off.l3(0).contains(x >> 6));
  EXPECT_FALSE(twins.on.l1(0).contains(x >> 6));

  // Core 0 touches X again: must be a fresh DRAM miss in both twins, not
  // a stale fast hit.
  const auto hits_mid = twins.on.counters(0).l1_filter_hits;
  EXPECT_EQ(access_both(0, x, now + 1).level, Level::kMemory);
  EXPECT_EQ(twins.on.counters(0).l1_filter_hits, hits_mid);
  twins.expect_equal("after back-invalidation");
}

TEST(FilterIdentityMemorySystem, PrefetchFillEvictionsKeepFilterCoherent) {
  // Prefetcher fills insert into the L3 (issue_prefetches), and their
  // evictions back-invalidate private copies exactly like demand fills.
  // Stream enough prefetch-friendly traffic to churn the whole L3 and
  // verify the twins never diverge.
  Twins twins(64);
  ASSERT_TRUE(twins.on.config().prefetcher.enabled);
  const std::uint64_t bytes = twins.on.config().l3.size_bytes * 4;
  const Addr base = twins.on.alloc(bytes);
  ASSERT_EQ(base, twins.off.alloc(bytes));

  std::vector<Cycles> now(2, 0);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t off = 0; off < bytes; off += 64) {
      // Core 0 streams (trains the prefetcher); core 1 re-reads a small
      // working set whose lines the stream's prefetch fills keep evicting.
      const AccessResult a =
          twins.on.access(0, base + off, AccessKind::kLoad, now[0]);
      const AccessResult b =
          twins.off.access(0, base + off, AccessKind::kLoad, now[0]);
      ASSERT_EQ(a.complete, b.complete) << "off " << off;
      now[0] = a.complete;
      if (off % 1024 == 0) {
        const Addr hot = base + (off / 1024 % 64) * 64;
        const AccessResult c =
            twins.on.access(1, hot, AccessKind::kLoad, now[1]);
        const AccessResult d =
            twins.off.access(1, hot, AccessKind::kLoad, now[1]);
        ASSERT_EQ(c.complete, d.complete) << "off " << off;
        now[1] = c.complete;
      }
    }
  }
  EXPECT_GT(twins.on.counters(0).prefetch_issued, 0u);
  twins.expect_equal("after prefetch churn");
}

TEST(FilterIdentityMemorySystem, FlushCachesLeavesNoFastHit) {
  Twins twins(64);
  const Addr base = twins.on.alloc(4096);
  ASSERT_EQ(base, twins.off.alloc(4096));
  twins.on.access(0, base, AccessKind::kLoad, 0);
  twins.off.access(0, base, AccessKind::kLoad, 0);
  twins.on.flush_caches();
  twins.off.flush_caches();
  const auto hits = twins.on.counters(0).l1_filter_hits;
  const AccessResult a = twins.on.access(0, base, AccessKind::kLoad, 100);
  const AccessResult b = twins.off.access(0, base, AccessKind::kLoad, 100);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.level, Level::kMemory);  // flushed everywhere: DRAM again
  EXPECT_EQ(twins.on.counters(0).l1_filter_hits, hits);
  twins.expect_equal("after flush");
}

}  // namespace
}  // namespace am::sim
