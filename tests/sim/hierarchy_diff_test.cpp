// Differential test of the composed hierarchy walk: sim::MemorySystem
// against reference::ReferenceHierarchy (reference_hierarchy.hpp), a naive
// model of the same rules with no line->slot table probes, no inline L1
// path and no host prefetching. Seeded multi-core traces drive both: single
// accesses and batches, loads and stores, tight reuse, strided streams that
// train the prefetcher and far jumps that churn the L3, with flush_caches
// and reset_stats in between.
//
// Every access must complete at the same cycle on the same level, and
// every batch at the same cycle. At checkpoints and at the end of each
// trace the two sides must agree on each core's architectural counters,
// the resident lines of every L1, L2 and L3, each core's L3 occupancy and
// each socket's memory traffic (total bytes, busy-until).
//
// The grid spans machine scales 1 to 512, a non-power-of-two L3 set
// count, 1-, 8- and 20-way private caches, a two-node machine, the H3 LLC
// hash, SRRIP insertion and random replacement, prefetch on and off, the
// L3 hint on and off, and the channel and ddr4 backends. The production
// walk's table probes must really resolve hits (l1_filter_hits and
// l2_filter_hits above zero), or the traces would not test them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_hierarchy.hpp"
#include "sim/memory_system.hpp"

namespace am::sim {
namespace {

constexpr Addr kBase = Addr{1} << 20;  // 64-byte aligned trace base

// The Counters fields the determinism contract covers: everything but the
// probes' own diagnostics.
constexpr std::pair<const char*, std::uint64_t Counters::*>
    kArchitectural[] = {
        {"loads", &Counters::loads},
        {"stores", &Counters::stores},
        {"l1_hits", &Counters::l1_hits},
        {"l2_hits", &Counters::l2_hits},
        {"l3_hits", &Counters::l3_hits},
        {"mem_accesses", &Counters::mem_accesses},
        {"prefetch_issued", &Counters::prefetch_issued},
        {"prefetch_dropped", &Counters::prefetch_dropped},
        {"writebacks", &Counters::writebacks},
        {"bytes_from_mem", &Counters::bytes_from_mem},
        {"compute_cycles", &Counters::compute_cycles},
        {"stall_cycles", &Counters::stall_cycles},
};

// Every reference line is resident in the production cache, and the two
// hold equally many lines: the resident sets are equal.
template <typename Fast>
::testing::AssertionResult same_lines(const Fast& fast,
                                      const reference::ReferenceCache& ref,
                                      const std::string& what) {
  for (const Addr line : ref.resident())
    if (!fast.contains(line))
      return ::testing::AssertionFailure()
             << what << ": line " << line << " resident only in the reference";
  if (fast.resident_lines() != ref.resident_lines())
    return ::testing::AssertionFailure()
           << what << ": " << fast.resident_lines() << " resident lines, want "
           << ref.resident_lines();
  return ::testing::AssertionSuccess();
}

// The production hierarchy and the reference side by side.
class Pair {
 public:
  explicit Pair(const MachineConfig& machine) : sim_(machine), ref_(machine) {}

  MemorySystem& sim() { return sim_; }
  const MachineConfig& config() const { return sim_.config(); }

  /// One access on both sides at `now`; on agreement returns its result.
  ::testing::AssertionResult access(CoreId core, Addr addr, AccessKind kind,
                                    Cycles now, AccessResult* result) {
    const AccessResult got = sim_.access(core, addr, kind, now);
    const AccessResult want = ref_.access(core, addr, kind, now);
    *result = got;
    if (got.complete == want.complete && got.level == want.level)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "access(core " << core << ", addr " << addr << ", "
           << (kind == AccessKind::kStore ? "store" : "load") << ", now "
           << now << ") = {" << got.complete << ", " << level_name(got.level)
           << "}, want {" << want.complete << ", " << level_name(want.level)
           << "}";
  }

  ::testing::AssertionResult batch(CoreId core, const std::vector<Addr>& addrs,
                                   AccessKind kind, Cycles now,
                                   Cycles* done) {
    const Cycles got = sim_.access_batch(core, addrs, kind, now);
    const Cycles want = ref_.access_batch(core, addrs, kind, now);
    *done = got;
    if (got == want) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "access_batch(core " << core << ", " << addrs.size()
           << " accesses from " << addrs.front() << ", now " << now
           << ") = " << got << ", want " << want;
  }

  void flush_caches() {
    sim_.flush_caches();
    ref_.flush_caches();
  }
  void reset_stats() {
    sim_.reset_stats();
    ref_.reset_stats();
  }

  ::testing::AssertionResult same_state() {
    const MachineConfig& m = config();
    for (CoreId core = 0; core < m.total_cores(); ++core) {
      const std::string at = "core " + std::to_string(core);
      for (const auto& [name, field] : kArchitectural) {
        const std::uint64_t got = sim_.counters(core).*field;
        const std::uint64_t want = ref_.counters(core).*field;
        if (got != want)
          return ::testing::AssertionFailure()
                 << at << ": " << name << " " << got << ", want " << want;
      }
      if (auto r = same_lines(sim_.l1(core), ref_.l1(core), at + " L1"); !r)
        return r;
      if (auto r = same_lines(sim_.l2(core), ref_.l2(core), at + " L2"); !r)
        return r;
      if (sim_.l3_occupancy_bytes(core) != ref_.l3_occupancy_bytes(core))
        return ::testing::AssertionFailure()
               << at << ": L3 occupancy " << sim_.l3_occupancy_bytes(core)
               << " B, want " << ref_.l3_occupancy_bytes(core) << " B";
    }
    for (std::uint32_t s = 0; s < m.total_sockets(); ++s) {
      const std::string at = "socket " + std::to_string(s);
      if (auto r = same_lines(sim_.l3(s), ref_.l3(s), at + " L3"); !r)
        return r;
      const MemoryBackend& got = sim_.mem_backend(s);
      const MemoryBackend& want = ref_.mem_backend(s);
      if (got.total_bytes() != want.total_bytes() ||
          got.busy_until() != want.busy_until())
        return ::testing::AssertionFailure()
               << at << " memory: " << got.total_bytes() << " B busy until "
               << got.busy_until() << ", want " << want.total_bytes()
               << " B busy until " << want.busy_until();
    }
    return ::testing::AssertionSuccess();
  }

 private:
  MemorySystem sim_;
  reference::ReferenceHierarchy ref_;
};

// Totals over a trace that show which paths of the walk it exercised.
struct Coverage {
  std::uint64_t l1_filter_hits = 0;
  std::uint64_t l2_filter_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_dropped = 0;

  void add(const Counters& c) {
    l1_filter_hits += c.l1_filter_hits;
    l2_filter_hits += c.l2_filter_hits;
    l3_hits += c.l3_hits;
    writebacks += c.writebacks;
    prefetch_issued += c.prefetch_issued;
    prefetch_dropped += c.prefetch_dropped;
  }
};

// One seeded trace through both sides. Most accesses come from the first
// four cores of socket 0, which share lines and so sharer bits; the rest
// spread over every core. The footprint is three times one L3.
::testing::AssertionResult same_trace(Pair& pair, std::uint64_t seed,
                                      int steps, Coverage& coverage) {
  const MachineConfig& m = pair.config();
  const CoreId cores = m.total_cores();
  const std::uint64_t line_bytes = m.l1.line_bytes;
  const std::uint64_t lines = 3 * m.l3.num_lines();
  Rng rng(seed);
  std::vector<Cycles> now(cores, 0);
  std::vector<Addr> last(cores, kBase);    // each core's previous address
  std::vector<Addr> stream(cores, kBase);  // each core's strided stream
  std::vector<std::uint64_t> stride(cores, 1);
  std::vector<Addr> batch;
  for (int step = 0; step < steps; ++step) {
    const auto fail = [&] {
      return ::testing::AssertionFailure() << "seed " << seed << ", step "
                                           << step << ": ";
    };
    if (step == steps / 3) pair.flush_caches();
    if (step == 2 * steps / 3) pair.reset_stats();
    if (step % 2000 == 1999)
      if (auto r = pair.same_state(); !r) return fail() << r.message();

    const CoreId core = static_cast<CoreId>(
        rng.bounded(4) == 0 ? rng.bounded(cores)
                            : rng.bounded(std::min<CoreId>(4, cores)));
    const AccessKind kind =
        rng.bounded(4) == 0 ? AccessKind::kStore : AccessKind::kLoad;
    Addr addr = kBase;
    switch (rng.bounded(8)) {
      case 0:
      case 1:  // a few hot lines every core shares
        addr += rng.bounded(8) * line_bytes + rng.bounded(8) * 8;
        break;
      case 2:  // a warm region beyond the private caches of small scales
        addr += rng.bounded(256) * line_bytes;
        break;
      case 3:  // the same line again, or its neighbour
        addr = last[core] + rng.bounded(2) * line_bytes + rng.bounded(8) * 8;
        break;
      case 4:
      case 5:  // a strided stream; now and then it restarts elsewhere
        if (rng.bounded(64) == 0) {
          stream[core] = kBase + rng.bounded(lines) * line_bytes;
          stride[core] = 1 + rng.bounded(3);
        }
        stream[core] += stride[core] * line_bytes;
        addr = stream[core];
        break;
      default:  // a far jump
        addr += rng.bounded(lines) * line_bytes;
        break;
    }
    last[core] = addr;
    if (rng.bounded(8) == 0) now[core] += rng.bounded(400);  // compute gap
    if (rng.bounded(8) == 0) {  // independent accesses: the miss window
      batch.clear();
      const std::uint64_t n = 1 + rng.bounded(12);
      for (std::uint64_t i = 0; i < n; ++i)
        batch.push_back(rng.bounded(3) == 0
                            ? kBase + rng.bounded(lines) * line_bytes
                            : addr + i * 3 * line_bytes);
      if (auto r = pair.batch(core, batch, kind, now[core], &now[core]); !r)
        return fail() << r.message();
    } else {
      AccessResult res;
      if (auto r = pair.access(core, addr, kind, now[core], &res); !r)
        return fail() << r.message();
      now[core] = res.complete;
    }
  }
  if (auto r = pair.same_state(); !r)
    return ::testing::AssertionFailure() << "seed " << seed << ", end: "
                                         << r.message();
  for (CoreId core = 0; core < cores; ++core)
    coverage.add(pair.sim().counters(core));
  return ::testing::AssertionSuccess();
}

std::string describe(const MachineConfig& m) {
  std::ostringstream os;
  os << m.name << " nodes=" << m.nodes << " L1 " << m.l1.num_sets() << "x"
     << m.l1.ways << " L2 " << m.l2.num_sets() << "x" << m.l2.ways << " L3 "
     << m.l3.num_sets() << "x" << m.l3.ways << " hash "
     << set_hash_name(m.set_hash) << " prefetch " << m.prefetcher.enabled
     << " hint " << m.l3_hint_interval << " backend "
     << mem_backend_name(m.mem_backend);
  return os.str();
}

constexpr int kSteps = 9000;

// Scales 1 to 512 crossed with prefetch, the L3 hint and the backend.
TEST(HierarchyDiff, MatchesReferenceAcrossScales) {
  Coverage coverage;
  std::uint64_t seed = 1;
  for (const std::uint32_t scale : {1u, 16u, 64u, 512u})
    for (const bool prefetch : {true, false})
      for (const std::uint32_t hint : {16u, 0u})
        for (const char* backend : {"channel", "ddr4"}) {
          auto m = MachineConfig::xeon20mb_scaled(scale);
          m.prefetcher.enabled = prefetch;
          m.l3_hint_interval = hint;
          apply_mem_backend(m, backend);
          Pair pair(m);
          ASSERT_TRUE(same_trace(pair, seed++, kSteps, coverage))
              << describe(m);
        }
  EXPECT_GT(coverage.l1_filter_hits, 0u);
  EXPECT_GT(coverage.l2_filter_hits, 0u);
  EXPECT_GT(coverage.l3_hits, 0u);
  EXPECT_GT(coverage.writebacks, 0u);
  EXPECT_GT(coverage.prefetch_issued, 0u);
  EXPECT_GT(coverage.prefetch_dropped, 0u);
}

// Geometries and policies the presets do not reach, each at scale 64 with
// the prefetcher and the hint on.
TEST(HierarchyDiff, MatchesReferenceAcrossGeometries) {
  std::vector<MachineConfig> grid;
  auto base = [] { return MachineConfig::xeon20mb_scaled(64); };
  {
    auto m = base();  // a non-power-of-two L3 set count (96 sets)
    m.l3.size_bytes = 96 * 20 * 64;
    grid.push_back(m);
  }
  {
    auto m = base();  // direct-mapped private caches
    m.l1 = {16 * 64, 64, 1, "L1D"};
    m.l2 = {64 * 64, 64, 1, "L2"};
    grid.push_back(m);
  }
  {
    auto m = base();  // 20-way private caches, 12-set (non-pow2) L2
    m.l1 = {20 * 64, 64, 20, "L1D"};
    m.l2 = {12 * 20 * 64, 64, 20, "L2"};
    grid.push_back(m);
  }
  {
    auto m = MachineConfig::xeon20mb_scaled(64, 2);  // 2 sockets x 2 nodes
    grid.push_back(m);
    apply_mem_backend(m, "ddr4");
    grid.push_back(m);
  }
  {
    auto m = base();  // the hashed LLC
    apply_set_hash(m, "h3");
    grid.push_back(m);
  }
  {
    auto m = base();  // SRRIP insertion and random replacement
    m.l2.insert_age = 7;
    m.l3.insert_age = 3000;
    m.l1.replacement = Replacement::kRandom;
    m.l3.replacement = Replacement::kRandom;
    grid.push_back(m);
  }
  Coverage coverage;
  std::uint64_t seed = 100;
  for (const MachineConfig& m : grid) {
    Pair pair(m);
    ASSERT_TRUE(same_trace(pair, seed++, kSteps, coverage)) << describe(m);
  }
  EXPECT_GT(coverage.l1_filter_hits, 0u);
  EXPECT_GT(coverage.l2_filter_hits, 0u);
}

// Directed scenarios on the smallest machine (L1 = 1 set, L3 = 20 ways x
// 16 sets). The checks run on both sides through Pair.

// An L3 eviction back-invalidates the private copies, so the L1's stale
// table entry for the line must not turn the next access into a hit.
TEST(HierarchyDiff, BackInvalidationDefeatsStaleL1Entry) {
  auto m = MachineConfig::xeon20mb_scaled(64);
  Pair pair(m);
  const Addr x = kBase;
  AccessResult res;
  ASSERT_TRUE(pair.access(0, x, AccessKind::kLoad, 0, &res));
  const auto probe_hits = pair.sim().counters(0).l1_filter_hits;
  ASSERT_TRUE(pair.access(0, x, AccessKind::kLoad, 1000, &res));
  EXPECT_EQ(res.level, Level::kL1);
  EXPECT_EQ(pair.sim().counters(0).l1_filter_hits, probe_hits + 1);

  // Core 1, on the same socket, floods the L3 until X leaves it.
  const Addr x_line = x / m.l1.line_bytes;
  Cycles now = 2000;
  for (std::uint64_t i = 1;
       i < 4 * m.l3.num_lines() && pair.sim().l3(0).contains(x_line); ++i) {
    ASSERT_TRUE(pair.access(1, x + i * 64, AccessKind::kLoad, now, &res));
    now = res.complete;
  }
  ASSERT_FALSE(pair.sim().l3(0).contains(x_line));
  EXPECT_FALSE(pair.sim().l1(0).contains(x_line));
  ASSERT_TRUE(pair.same_state());

  const auto probe_hits_mid = pair.sim().counters(0).l1_filter_hits;
  ASSERT_TRUE(pair.access(0, x, AccessKind::kLoad, now + 1, &res));
  EXPECT_EQ(res.level, Level::kMemory);
  EXPECT_EQ(pair.sim().counters(0).l1_filter_hits, probe_hits_mid);
  EXPECT_TRUE(pair.same_state());
}

// Core 0 streams through four L3s' worth of lines three times, so its
// prefetch fills keep evicting the small working set core 1 re-reads.
TEST(HierarchyDiff, PrefetchFillChurn) {
  auto m = MachineConfig::xeon20mb_scaled(64);
  ASSERT_TRUE(m.prefetcher.enabled);
  Pair pair(m);
  const std::uint64_t bytes = 4 * m.l3.size_bytes;
  Cycles now[2] = {0, 0};
  AccessResult res;
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t off = 0; off < bytes; off += 64) {
      ASSERT_TRUE(pair.access(0, kBase + off, AccessKind::kLoad, now[0], &res))
          << "round " << round;
      now[0] = res.complete;
      if (off % 1024 != 0) continue;
      const Addr hot = kBase + (off / 1024 % 64) * 64;
      ASSERT_TRUE(pair.access(1, hot, AccessKind::kStore, now[1], &res))
          << "round " << round;
      now[1] = res.complete;
    }
  EXPECT_GT(pair.sim().counters(0).prefetch_issued, 0u);
  EXPECT_GT(pair.sim().counters(0).writebacks, 0u);
  EXPECT_TRUE(pair.same_state());
}

// flush_caches empties every level: the next access goes to memory, not
// to a stale table entry.
TEST(HierarchyDiff, FlushCachesLeavesNothingResident) {
  Pair pair(MachineConfig::xeon20mb_scaled(64));
  AccessResult res;
  ASSERT_TRUE(pair.access(0, kBase, AccessKind::kStore, 0, &res));
  ASSERT_TRUE(pair.access(0, kBase, AccessKind::kLoad, 100, &res));
  ASSERT_EQ(res.level, Level::kL1);
  pair.flush_caches();
  const auto probe_hits = pair.sim().counters(0).l1_filter_hits;
  ASSERT_TRUE(pair.access(0, kBase, AccessKind::kLoad, 200, &res));
  EXPECT_EQ(res.level, Level::kMemory);
  EXPECT_EQ(pair.sim().counters(0).l1_filter_hits, probe_hits);
  EXPECT_TRUE(pair.same_state());
}

}  // namespace
}  // namespace am::sim
