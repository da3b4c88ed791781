#include "sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace am::sim {
namespace {

MachineConfig small_machine() {
  auto m = MachineConfig::xeon20mb_scaled(64);  // L3 320 KB, L2 4 KB, L1 512 B
  m.nodes = 2;
  m.prefetcher.enabled = false;  // most tests want exact hit/miss control
  m.l3_hint_interval = 0;
  return m;
}

TEST(MemorySystem, FirstAccessMissesToMemoryThenHitsL1) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  const auto first = ms.access(0, a, AccessKind::kLoad, 0);
  EXPECT_EQ(first.level, Level::kMemory);
  const auto second = ms.access(0, a, AccessKind::kLoad, first.complete);
  EXPECT_EQ(second.level, Level::kL1);
  EXPECT_EQ(second.complete - first.complete, ms.config().l1_latency);
  EXPECT_EQ(ms.counters(0).loads, 2u);
  EXPECT_EQ(ms.counters(0).mem_accesses, 1u);
  EXPECT_EQ(ms.counters(0).l1_hits, 1u);
}

TEST(MemorySystem, SameSocketSecondCoreHitsSharedL3) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kLoad, 0);
  const auto res = ms.access(1, a, AccessKind::kLoad, 1000);
  EXPECT_EQ(res.level, Level::kL3);
}

TEST(MemorySystem, OtherSocketMissesToItsOwnMemory) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kLoad, 0);
  // Core 8 is on socket 1; its L3 does not have the line.
  const auto res = ms.access(8, a, AccessKind::kLoad, 1000);
  EXPECT_EQ(res.level, Level::kMemory);
}

TEST(MemorySystem, InclusiveL3BackInvalidatesPrivateCopies) {
  auto cfg = small_machine();
  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kLoad, 0);  // in L1/L2/L3 of core 0
  // Evict `a` from the L3 by touching enough conflicting lines from another
  // core on the same socket. L3 is 320 KB, 20 ways: walk > 20 lines mapping
  // to a's set. Set count = 320K/64/20 = 256.
  const auto sets = cfg.l3.num_sets();
  Cycles t = 1000;
  for (std::uint64_t k = 1; k <= cfg.l3.ways + 1; ++k) {
    const Addr conflict = a + k * sets * 64;
    t = ms.access(1, conflict, AccessKind::kLoad, t).complete;
  }
  EXPECT_FALSE(ms.l3(0).contains(a >> 6));
  // Core 0's private copies must be gone too: next access misses to DRAM.
  const auto res = ms.access(0, a, AccessKind::kLoad, t);
  EXPECT_EQ(res.level, Level::kMemory);
}

TEST(MemorySystem, DirtyEvictionChargesWriteback) {
  auto cfg = small_machine();
  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kStore, 0);
  const std::uint64_t bytes_before = ms.mem_backend(0).total_bytes();
  const auto sets = cfg.l3.num_sets();
  Cycles t = 1000;
  for (std::uint64_t k = 1; k <= cfg.l3.ways + 1; ++k)
    t = ms.access(1, a + k * sets * 64, AccessKind::kLoad, t).complete;
  // The evicted dirty line caused one extra line transfer beyond the fills.
  const std::uint64_t fills = (cfg.l3.ways + 1) * 64;
  EXPECT_GT(ms.mem_backend(0).total_bytes(), bytes_before + fills - 64);
}

// Loads `count` lines spaced `stride` lines apart, from `first` on.
Cycles load_lines(MemorySystem& ms, CoreId core, Addr first, Addr stride,
                  std::uint64_t count, Cycles t) {
  for (std::uint64_t k = 0; k < count; ++k)
    t = ms.access(core, (first + k * stride) * 64, AccessKind::kLoad, t)
            .complete;
  return t;
}

// Evicts `line` from socket 0's L3 with loads from core 1 and returns the
// write-backs core 1 was charged for.
std::uint64_t evict_from_l3(MemorySystem& ms, Addr line, Cycles t) {
  const auto& l3 = ms.config().l3;
  (void)load_lines(ms, 1, line + l3.num_sets(), l3.num_sets(), l3.ways + 1, t);
  EXPECT_FALSE(ms.l3(0).contains(line));
  return ms.counters(1).writebacks;
}

// The L2 does not include the L1, so a dirty L1 victim may have left the
// L2 already. Its dirty bit must then reach the L3, and the L3 eviction
// must write it back.
TEST(MemorySystem, DirtyL1VictimAbsentFromL2DirtiesL3) {
  const auto cfg = small_machine();  // L1: 1 set x 8 ways, L2: 8 sets
  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64, 1 << 20) / 64;
  const Addr l2_sets = cfg.l2.num_sets();
  Cycles t = ms.access(0, a * 64, AccessKind::kLoad, 0).complete;
  t = ms.access(0, a * 64, AccessKind::kStore, t).complete;  // L1 dirty only
  // Push `a` out of its L2 set while keeping it the L1's MRU line: L1 hits
  // never reach the L2's LRU state.
  for (Addr k = 1; k <= cfg.l2.ways; ++k) {
    t = load_lines(ms, 0, a + k * l2_sets, 1, 1, t);
    t = ms.access(0, a * 64, AccessKind::kLoad, t).complete;
  }
  ASSERT_FALSE(ms.l2(0).contains(a));
  ASSERT_TRUE(ms.l1(0).contains(a));
  // Now evict it from the L1 with lines of another L2 set.
  t = load_lines(ms, 0, a + 1, l2_sets, cfg.l1.ways, t);
  ASSERT_FALSE(ms.l1(0).contains(a));
  ASSERT_TRUE(ms.l3(0).contains(a));
  EXPECT_EQ(evict_from_l3(ms, a, t), 1u);
}

// Each cache's line->slot table has Cache::table_entries entries indexed
// by the low line bits, so a line one table size above `a` takes over a's
// entry.
// A dirty L1 victim whose L2 entry was overwritten that way must still
// dirty the L2 copy, found by the set scan. When the L2 later evicts that
// copy, it dirties the L3 line, so the L3 eviction writes back.
TEST(MemorySystem, DirtyL1VictimFindsL2CopyPastOverwrittenEntry) {
  const auto cfg = small_machine();  // L2: 8 sets x 8 ways, 256 entries
  const Addr l2_sets = cfg.l2.num_sets();
  const Addr l2_table = Cache::table_entries(cfg.l2);
  // Stores to `a`, overwrites its L2 entry, then evicts it from the L1.
  const auto dirty_l1_victim = [&](MemorySystem& ms, Addr a) {
    Cycles t = ms.access(0, a * 64, AccessKind::kLoad, 0).complete;
    t = ms.access(0, a * 64, AccessKind::kStore, t).complete;  // L1 dirty
    t = load_lines(ms, 0, a + l2_table, 1, 1, t);  // takes a's L2 entry
    EXPECT_FALSE(ms.l2(0).try_fast_hit(a, 0, false));  // the entry is stale
    // Evict `a` from the L1 with lines whose L2 entries are not a's.
    t = load_lines(ms, 0, a + 1, l2_sets, cfg.l1.ways, t);  // L1 -> L2
    EXPECT_FALSE(ms.l1(0).contains(a));
    return t;
  };
  // The L3 fallback would write back as well, so look at the two copies in
  // a twin (invalidate reports the dirty bit, and breaks inclusion).
  MemorySystem twin(cfg);
  const Addr b = twin.alloc(64, 1 << 20) / 64;
  (void)dirty_l1_victim(twin, b);
  EXPECT_TRUE(twin.l2(0).invalidate(b));   // present and dirty
  EXPECT_FALSE(twin.l3(0).invalidate(b));  // present, still clean

  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64, 1 << 20) / 64;
  Cycles t = dirty_l1_victim(ms, a);
  ASSERT_TRUE(ms.l2(0).contains(a));
  // `a` is the oldest line of its L2 set: fill the rest of the set.
  t = load_lines(ms, 0, a + l2_sets, l2_sets, cfg.l2.ways - 1, t);  // -> L3
  ASSERT_FALSE(ms.l2(0).contains(a));
  ASSERT_TRUE(ms.l3(0).contains(a));
  EXPECT_EQ(evict_from_l3(ms, a, t), 1u);
}

// The same one level down: a dirty L2 victim whose L3 entry was taken by
// a line one L3 table size up still dirties the L3 copy.
TEST(MemorySystem, DirtyL2VictimFindsL3CopyPastOverwrittenEntry) {
  const auto cfg = small_machine();  // L3: 256 sets x 20 ways, 32768 entries
  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64, 1 << 20) / 64;
  const Addr l2_sets = cfg.l2.num_sets();
  const Addr l3_table = Cache::table_entries(cfg.l3);
  Cycles t = ms.access(0, a * 64, AccessKind::kLoad, 0).complete;
  t = ms.access(0, a * 64, AccessKind::kStore, t).complete;  // L1 dirty only
  t = load_lines(ms, 0, a + 1, l2_sets, cfg.l1.ways, t);  // L1 -> L2
  ASSERT_FALSE(ms.l1(0).contains(a));
  ASSERT_TRUE(ms.l2(0).contains(a));
  t = load_lines(ms, 1, a + l3_table, 1, 1, t);  // takes a's L3 entry
  ASSERT_FALSE(ms.l3(0).try_fast_hit(a, 0, false));  // the entry is stale
  t = load_lines(ms, 0, a + l2_sets, l2_sets, cfg.l2.ways, t);  // L2 -> L3
  ASSERT_FALSE(ms.l2(0).contains(a));
  ASSERT_TRUE(ms.l3(0).contains(a));
  EXPECT_EQ(evict_from_l3(ms, a, t), 1u);
}

// Without the store, the same sequence writes nothing back.
TEST(MemorySystem, CleanPrivateVictimsWriteNothingBack) {
  const auto cfg = small_machine();
  MemorySystem ms(cfg);
  const Addr a = ms.alloc(64, 1 << 20) / 64;
  const Addr l2_sets = cfg.l2.num_sets();
  Cycles t = ms.access(0, a * 64, AccessKind::kLoad, 0).complete;
  t = load_lines(ms, 0, a + 1, l2_sets, cfg.l1.ways, t);
  t = load_lines(ms, 0, a + l2_sets, l2_sets, cfg.l2.ways, t);
  EXPECT_EQ(evict_from_l3(ms, a, t), 0u);
}

// Caches are sized at their first fill, so a socket no core has touched
// reports no occupancy and flushes without a fill. The touched socket
// flushes as before.
TEST(MemorySystem, UntouchedSocketHasNothingToCountOrFlush) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  const Cycles t = ms.access(0, a, AccessKind::kStore, 0).complete;
  EXPECT_EQ(ms.l3_occupancy_bytes(8), 0u);  // socket 1, never touched
  EXPECT_EQ(ms.l3_occupancy_bytes(0), 64u);
  ms.flush_caches();
  EXPECT_EQ(ms.l3_occupancy_bytes(0), 0u);
  for (const CoreId core : {CoreId{0}, CoreId{8}}) {
    EXPECT_EQ(ms.l1(core).resident_lines(), 0u);
    EXPECT_EQ(ms.l2(core).resident_lines(), 0u);
    EXPECT_EQ(ms.l3(ms.config().socket_of(core)).resident_lines(), 0u);
  }
  EXPECT_EQ(ms.access(0, a, AccessKind::kLoad, t).level, Level::kMemory);
  EXPECT_EQ(ms.access(8, a, AccessKind::kLoad, t).level, Level::kMemory);
}

// An L3 line whose sharer mask names a core that never filled its private
// caches: the back-invalidation on its eviction looks the line up in that
// core's never-filled L1 and L2, finds nothing, and the line's own dirty
// bit still writes it back.
TEST(MemorySystem, BackInvalidationReachesNeverFilledSharer) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64, 1 << 20) / 64;
  const CoreId sharer = 3;
  (void)ms.l3(0).access(a, sharer, 1u << sharer, /*is_store=*/true);
  EXPECT_EQ(evict_from_l3(ms, a, 0), 1u);
  EXPECT_EQ(ms.l1(sharer).resident_lines(), 0u);
  EXPECT_EQ(ms.l2(sharer).resident_lines(), 0u);
  EXPECT_EQ(ms.counters(sharer).loads, 0u);
}

TEST(MemorySystem, BatchOverlapsMissesUpToWindow) {
  auto cfg = small_machine();
  cfg.max_outstanding_misses = 4;
  MemorySystem ms(cfg);
  std::vector<Addr> addrs;
  for (int i = 0; i < 4; ++i)
    addrs.push_back(ms.alloc(4096) /*different lines*/);
  const Cycles serial_estimate = 4 * (cfg.mem_latency + 10);
  const Cycles done = ms.access_batch(0, addrs, AccessKind::kLoad, 0);
  // All four overlap: completion well under the serial sum (transfers
  // serialize on the bus at 10 cycles each, latency overlaps).
  EXPECT_LT(done, serial_estimate);
  EXPECT_GE(done, cfg.mem_latency);
}

TEST(MemorySystem, BatchBeyondWindowSerializes) {
  auto cfg = small_machine();
  cfg.max_outstanding_misses = 1;
  MemorySystem ms(cfg);
  std::vector<Addr> addrs;
  for (int i = 0; i < 3; ++i) addrs.push_back(ms.alloc(4096));
  const Cycles done = ms.access_batch(0, addrs, AccessKind::kLoad, 0);
  // With a single fill buffer each miss waits for the previous completion.
  EXPECT_GE(done, 3 * cfg.mem_latency);
}

TEST(MemorySystem, PrefetcherTurnsStreamIntoL3Hits) {
  auto cfg = small_machine();
  cfg.prefetcher.enabled = true;
  MemorySystem ms(cfg);
  const Addr base = ms.alloc(1 << 20);
  Cycles t = 0;
  // Sequential line walk: after training, many demand accesses hit in L3.
  for (int i = 0; i < 200; ++i)
    t = ms.access(0, base + static_cast<Addr>(i) * 64, AccessKind::kLoad, t)
            .complete;
  EXPECT_GT(ms.counters(0).prefetch_issued, 50u);
  EXPECT_GT(ms.counters(0).l3_hits, 100u);
  EXPECT_LT(ms.counters(0).mem_accesses, 100u);
}

TEST(MemorySystem, LinkTransferCrossesNodes) {
  MemorySystem ms(small_machine());
  const Cycles done = ms.link_transfer(0, 1, 4096, 0);
  EXPECT_GT(done, ms.config().link_latency);
  EXPECT_THROW(ms.link_transfer(0, 0, 64, 0), std::invalid_argument);
}

TEST(MemorySystem, L3OccupancyTracksOwner) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64 * 100);
  Cycles t = 0;
  for (int i = 0; i < 100; ++i)
    t = ms.access(2, a + static_cast<Addr>(i) * 64, AccessKind::kLoad, t)
            .complete;
  EXPECT_EQ(ms.l3_occupancy_bytes(2), 100u * 64);
  EXPECT_EQ(ms.l3_occupancy_bytes(3), 0u);
}

// Core records name their socket by index, so a moved MemorySystem keeps
// walking the same caches, counters and backends.
TEST(MemorySystem, MovedSystemKeepsItsHierarchy) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  const Cycles t0 = ms.access(0, a, AccessKind::kStore, 0).complete;
  const Cycles t8 = ms.access(8, a, AccessKind::kLoad, 0).complete;
  MemorySystem moved(std::move(ms));
  EXPECT_EQ(moved.access(0, a, AccessKind::kLoad, t0).level, Level::kL1);
  EXPECT_EQ(moved.access(9, a, AccessKind::kLoad, t8).level, Level::kL3);
  EXPECT_EQ(moved.access(1, a, AccessKind::kLoad, t0).level, Level::kL3);
  EXPECT_EQ(moved.counters(0).stores, 1u);
  EXPECT_EQ(moved.counters(8).mem_accesses, 1u);
  EXPECT_EQ(moved.mem_backend(1).total_bytes(), 64u);
  EXPECT_EQ(moved.l3_occupancy_bytes(8), 64u);
}

TEST(MemorySystem, ResetStatsKeepsCacheContents) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kLoad, 0);
  ms.reset_stats();
  EXPECT_EQ(ms.counters(0).loads, 0u);
  const auto res = ms.access(0, a, AccessKind::kLoad, 1000);
  EXPECT_EQ(res.level, Level::kL1);  // still cached
}

TEST(MemorySystem, AllocAligns) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(100, 64);
  const Addr b = ms.alloc(10, 256);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_THROW(ms.alloc(8, 3), std::invalid_argument);
}

TEST(MemorySystem, StallAccountingViaCounters) {
  MemorySystem ms(small_machine());
  const Addr a = ms.alloc(64);
  ms.access(0, a, AccessKind::kLoad, 0);
  EXPECT_EQ(ms.counters(0).bytes_from_mem, 64u);
}

}  // namespace
}  // namespace am::sim
