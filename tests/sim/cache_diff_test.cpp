// Differential test: the flat-tag sim::Cache against the array-of-structs
// reference model it replaced (reference_cache.hpp). Both are driven with
// the same seeded operation traces — access (with and without the
// try_fast_hit probe in front), touch, mark_dirty, invalidate, contains
// and flush — over a grid of geometries and policies. Every AccessOutcome
// field and every return value must agree after each operation, and
// occupancy and resident counts must agree along the way and at the end.
//
// The production cache keeps a line->slot table of
// Cache::table_entries(config) entries indexed by the low line bits,
// trusted only when the named way still holds the line. The traces aim at
// the ways an entry goes stale: lines that collide modulo the table size,
// lines evicted and re-filled into another way, invalidate and flush.
// Its arrays are sized at the first fill, so traces also begin with every
// lookup on a cache that was never filled.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_cache.hpp"
#include "sim/cache.hpp"

namespace am::sim {
namespace {

constexpr int kOps = 12000;
constexpr std::uint16_t kOwners = 4;

std::string describe(const CacheConfig& c) {
  const bool h3 = c.set_hash == SetHash::kH3;
  const bool random = c.replacement == Replacement::kRandom;
  std::ostringstream os;
  os << "sets=" << c.num_sets() << " ways=" << c.ways;
  os << " hash=" << (h3 ? "h3" : "mask");
  os << " replacement=" << (random ? "random" : "lru");
  os << " insert_age=" << c.insert_age;
  return os.str();
}

std::string show(const Cache::AccessOutcome& o) {
  std::ostringstream os;
  os << "{hit " << o.hit << ", evicted " << o.evicted;
  os << ", evicted_dirty " << o.evicted_dirty;
  os << ", evicted_line " << o.evicted_line;
  os << ", evicted_sharers " << o.evicted_sharers << "}";
  return os.str();
}

::testing::AssertionResult same_outcome(const Cache::AccessOutcome& got,
                                        const Cache::AccessOutcome& want) {
  if (got.hit == want.hit && got.evicted == want.evicted &&
      got.evicted_dirty == want.evicted_dirty &&
      got.evicted_line == want.evicted_line &&
      got.evicted_sharers == want.evicted_sharers)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << show(got) << ", want " << show(want);
}

// The production cache and the reference side by side. Every call goes to
// both and reports the first disagreement.
class Twin {
 public:
  explicit Twin(const CacheConfig& c) : fast_(c), ref_(c) {}

  /// An access. With `probe` the production cache is called the way
  /// MemorySystem calls it: try_fast_hit first, access() only when the
  /// probe misses.
  ::testing::AssertionResult access(Addr line, bool probe = true,
                                    std::uint16_t owner = 0,
                                    std::uint32_t sharer = 0,
                                    bool store = false) {
    const Cache::AccessOutcome want = ref_.access(line, owner, sharer, store);
    Cache::AccessOutcome got;
    got.hit = probe && fast_.try_fast_hit(line, sharer, store);
    if (!got.hit) got = fast_.access(line, owner, sharer, store);
    return same_outcome(got, want);
  }
  /// try_fast_hit alone: a hit must be a reference hit. A miss is allowed
  /// either way (a stale entry), so the reference only runs on a hit.
  ::testing::AssertionResult probe(Addr line, bool store = false) {
    probe_hit_ = fast_.try_fast_hit(line, 0, store);
    if (!probe_hit_) return ::testing::AssertionSuccess();
    if (ref_.access(line, 0, 0, store).hit)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "try_fast_hit(" << line << ") hit an absent line";
  }
  ::testing::AssertionResult mark_dirty(Addr line) {
    return same("mark_dirty", line, fast_.mark_dirty(line),
                ref_.mark_dirty(line));
  }
  ::testing::AssertionResult invalidate(Addr line) {
    return same("invalidate", line, fast_.invalidate(line),
                ref_.invalidate(line));
  }
  ::testing::AssertionResult contains(Addr line) const {
    return same("contains", line, fast_.contains(line), ref_.contains(line));
  }
  /// Whether the last probe() hit.
  bool probe_hit() const { return probe_hit_; }
  void touch(Addr line) {
    fast_.touch(line);
    ref_.touch(line);
  }
  /// The host prefetch hint: production cache only, no simulated effect.
  void prefetch(Addr line) const { fast_.prefetch_set(line); }
  void flush() {
    fast_.flush();
    ref_.flush();
  }
  ::testing::AssertionResult same_counts() const {
    std::ostringstream got;
    std::ostringstream want;
    got << "resident " << fast_.resident_lines();
    want << "resident " << ref_.resident_lines();
    for (std::uint16_t owner = 0; owner < kOwners; ++owner) {
      got << ", owner " << owner << ": " << fast_.occupancy_lines(owner);
      want << ", owner " << owner << ": " << ref_.occupancy_lines(owner);
    }
    if (got.str() == want.str()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "counts " << got.str() << ", want " << want.str();
  }

 private:
  static ::testing::AssertionResult same(const char* call, Addr line,
                                         bool got, bool want) {
    if (got == want) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << call << "(" << line << ") = " << got << ", want " << want;
  }

  Cache fast_;
  reference::ReferenceCache ref_;
  bool probe_hit_ = false;
};

// Runs one seeded trace through both models. Half the lines come from a
// range three times the capacity, which keeps every set under eviction
// pressure; the other half are the few lines of a hot group and their
// aliases one to three table sizes up, which share table entries. A few
// high address bits exercise the hashed index.
::testing::AssertionResult same_trace(Twin& twin, const CacheConfig& c,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t lines = c.num_lines();
  const std::uint64_t table = Cache::table_entries(c);
  for (int op = 0; op < kOps; ++op) {
    Addr line = 0;
    if (rng.bounded(2) == 0)
      line = rng.bounded(lines * 3);
    else
      line = rng.bounded(8) + rng.bounded(4) * table;
    line += rng.bounded(4) << 40;
    const auto fail = [&] {
      std::ostringstream os;
      os << describe(c) << " seed=" << seed << ": op " << op;
      os << " line " << line << ": ";
      return ::testing::AssertionFailure() << os.str();
    };
    ::testing::AssertionResult same = ::testing::AssertionSuccess();
    const std::uint64_t kind = rng.bounded(20);
    if (kind < 12) {
      const auto owner = static_cast<std::uint16_t>(rng.bounded(kOwners));
      std::uint32_t sharer = 0;
      if (rng.bounded(3) != 0) sharer = 1u << rng.bounded(32);
      const bool store = rng.bounded(3) == 0;
      const bool probe = rng.bounded(4) != 0;
      same = twin.access(line, probe, owner, sharer, store);
    } else if (kind < 14) {
      same = twin.mark_dirty(line);
    } else if (kind < 15) {
      same = twin.probe(line, rng.bounded(2) == 0);
    } else if (kind < 16) {
      twin.touch(line);
    } else if (kind < 18) {
      same = twin.invalidate(line);
    } else if (kind < 19) {
      same = twin.contains(line);
    } else if (rng.bounded(400) == 0) {
      twin.flush();
    }
    if (!same) return fail() << same.message();
    if (op % 1000 == 999) {
      const auto counts = twin.same_counts();
      if (!counts) return fail() << counts.message();
    }
  }
  return twin.same_counts();
}

::testing::AssertionResult same_behaviour(const CacheConfig& c,
                                          std::uint64_t seed) {
  Twin twin(c);
  return same_trace(twin, c, seed);
}

// Every lookup on a cache that was never filled, each on `line`: all miss,
// change nothing, and leave the counts at 0. The prefetch hint must not
// index past the unfilled arrays either.
::testing::AssertionResult untouched_lookups_miss(Twin& twin, Addr line) {
  if (auto r = twin.same_counts(); !r) return r;
  twin.prefetch(line);
  if (auto r = twin.contains(line); !r) return r;
  twin.touch(line);
  if (auto r = twin.mark_dirty(line); !r) return r;
  if (auto r = twin.invalidate(line); !r) return r;
  for (const bool store : {false, true}) {
    if (auto r = twin.probe(line, store); !r) return r;
    if (twin.probe_hit())
      return ::testing::AssertionFailure()
             << "try_fast_hit(" << line << ") hit a never-filled cache";
  }
  twin.flush();
  return twin.same_counts();
}

TEST(CacheDiff, MatchesReferenceAcrossConfigGrid) {
  const std::uint32_t ways_grid[] = {1, 2, 8, 20};
  const std::uint64_t sets_grid[] = {16, 12};  // pow2 and non-pow2
  const SetHash hash_grid[] = {SetHash::kMask, SetHash::kH3};
  const Replacement policy_grid[] = {Replacement::kLru, Replacement::kRandom};
  // insert_age > 0 clamps early fills to one stamp and lands later fills
  // on earlier hit stamps: LRU ties, which the lowest way must win.
  const std::uint64_t age_grid[] = {0, 7, 3000};
  std::uint64_t seed = 1;
  for (const std::uint32_t ways : ways_grid)
    for (const std::uint64_t sets : sets_grid)
      for (const SetHash hash : hash_grid)
        for (const Replacement policy : policy_grid)
          for (const std::uint64_t age : age_grid) {
            CacheConfig c{sets * ways * 64, 64, ways, "diff"};
            c.set_hash = hash;
            c.replacement = policy;
            c.insert_age = age;
            ASSERT_TRUE(same_behaviour(c, seed++));
          }
  EXPECT_EQ(seed, 1u + 4 * 2 * 2 * 2 * 3);
}

// An L3-shaped cache (20 ways, 256 sets, 5120 lines in a 32768-entry
// table): long-lived lines and deep victim scans.
TEST(CacheDiff, MatchesReferenceOnL3Geometry) {
  std::uint64_t seed = 100;
  for (const SetHash hash : {SetHash::kMask, SetHash::kH3}) {
    CacheConfig c{320 * 1024, 64, 20, "L3"};
    c.set_hash = hash;
    ASSERT_TRUE(same_behaviour(c, seed++));
  }
}

// The L1 of a machine scaled 1:64: 8 lines in one set, so every line
// shares the set and every 64th line shares a table entry.
TEST(CacheDiff, MatchesReferenceOnOneSetL1) {
  std::uint64_t seed = 200;
  for (const Replacement policy : {Replacement::kLru, Replacement::kRandom})
    for (const std::uint64_t age : {0, 7}) {
      CacheConfig c{8 * 64, 64, 8, "L1"};
      c.replacement = policy;
      c.insert_age = age;
      ASSERT_TRUE(same_behaviour(c, seed++));
    }
}

// Geometries off the grid above: the full-size L1 (64 sets) and L2 (512
// sets), 48 (non-pow2) sets, 16 ways under SRRIP insertion and 4-way
// random replacement.
TEST(CacheDiff, MatchesReferenceOnOffGridGeometries) {
  std::vector<CacheConfig> grid = {
      {32 * 1024, 64, 8, "L1"},
      {256 * 1024, 64, 8, "L2"},
      {24 * 1024, 64, 8, "48 sets"},
  };
  CacheConfig srrip{64 * 1024, 64, 16, "srrip"};
  srrip.insert_age = 512;
  grid.push_back(srrip);
  CacheConfig random{64 * 1024, 64, 4, "random"};
  random.replacement = Replacement::kRandom;
  grid.push_back(random);
  std::uint64_t seed = 400;
  for (const CacheConfig& c : grid) ASSERT_TRUE(same_behaviour(c, seed++));
}

// One 20-way set: the L3's set depth with nothing but collisions.
TEST(CacheDiff, MatchesReferenceOnOneTwentyWaySet) {
  CacheConfig c{20 * 64, 64, 20, "set"};
  ASSERT_TRUE(same_behaviour(c, 300));
}

// Before its first fill a cache holds one invalid way named by a
// one-entry table. Every lookup must miss on every geometry and for any
// line (0, one table size up, the hashed range), and the traces that then
// fill the cache must still match the reference. A one-line cache evicts
// on every fill and still has the minimum 64-entry table.
TEST(CacheDiff, UntouchedCacheMissesThenMatchesReference) {
  std::vector<CacheConfig> grid = {
      {64, 64, 1, "line"},
      {8 * 64, 64, 8, "L1"},
      {12 * 20 * 64, 64, 20, "non-pow2"},
      {320 * 1024, 64, 20, "L3"},
  };
  CacheConfig random_line{64, 64, 1, "line random"};
  random_line.replacement = Replacement::kRandom;
  grid.push_back(random_line);
  CacheConfig h3{320 * 1024, 64, 20, "L3 h3"};
  h3.set_hash = SetHash::kH3;
  grid.push_back(h3);
  std::uint64_t seed = 500;
  for (const CacheConfig& c : grid) {
    const Addr table = Cache::table_entries(c);
    Twin twin(c);
    for (const Addr line : {Addr{0}, Addr{1}, table, table + 1,
                            (Addr{3} << 40) + 5})
      ASSERT_TRUE(untouched_lookups_miss(twin, line)) << describe(c);
    ASSERT_TRUE(same_trace(twin, c, seed++)) << describe(c);
  }
}

TEST(CacheDiff, TableEntriesRule) {
  EXPECT_EQ(Cache::table_entries({64, 64, 1, "line"}), 64u);
  EXPECT_EQ(Cache::table_entries({8 * 64, 64, 8, "L1"}), 64u);
  EXPECT_EQ(Cache::table_entries({64 * 64, 64, 8, "L2"}), 256u);
  EXPECT_EQ(Cache::table_entries({12 * 20 * 64, 64, 20, "set"}), 1024u);
  EXPECT_EQ(Cache::table_entries({320 * 1024, 64, 20, "L3"}), 32768u);
}

// Directed stale entries, on the one-set L1 (table of 64) and an
// L3-shaped set of 20 ways (table of 128). In both, line k fills way k of
// an empty cache.
class StaleEntry : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  CacheConfig config() const {
    const std::uint32_t ways = GetParam();
    return CacheConfig{ways * 64, 64, ways, "stale"};
  }
  Addr table() const { return Cache::table_entries(config()); }
  Addr ways() const { return GetParam(); }
};

// Two resident lines a table size apart share one entry; whichever was
// touched last owns it, and the other must still be found by the scan.
TEST_P(StaleEntry, CollidingLinesBothStayReachable) {
  Twin twin(config());
  const Addr a = 1;
  const Addr b = a + table();
  ASSERT_TRUE(twin.access(a));
  ASSERT_TRUE(twin.access(b));  // takes a's entry
  ASSERT_TRUE(twin.probe(a));
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.contains(a));
  ASSERT_TRUE(twin.mark_dirty(a));
  twin.touch(a);
  ASSERT_TRUE(twin.access(a, /*probe=*/true, 0, 2, false));  // scan hit
  ASSERT_TRUE(twin.probe(b, /*store=*/true));  // a owns the entry now
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.access(b, /*probe=*/true, 0, 0, true));
  ASSERT_TRUE(twin.invalidate(a));
  ASSERT_TRUE(twin.invalidate(b));
  ASSERT_TRUE(twin.contains(a));
  ASSERT_TRUE(twin.contains(b));
  ASSERT_TRUE(twin.same_counts());
}

// A line evicted from way w leaves its entry naming w, which now holds
// the line that replaced it. Filled again, the line lands in another way.
TEST_P(StaleEntry, EvictedLineRefilledIntoAnotherWay) {
  Twin twin(config());
  for (Addr line = 0; line < ways(); ++line)
    ASSERT_TRUE(twin.access(line, true, 0, 0, /*store=*/line == 0));
  ASSERT_TRUE(twin.access(1000 * table()));  // evicts line 0 from way 0
  ASSERT_TRUE(twin.probe(0));
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.contains(0));
  ASSERT_TRUE(twin.mark_dirty(0));
  ASSERT_TRUE(twin.invalidate(0));
  ASSERT_TRUE(twin.access(0));  // evicts line 1 from way 1
  ASSERT_TRUE(twin.probe(1));
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.probe(0, /*store=*/true));
  EXPECT_TRUE(twin.probe_hit());
  ASSERT_TRUE(twin.mark_dirty(0));
  ASSERT_TRUE(twin.invalidate(0));  // dirty
  ASSERT_TRUE(twin.same_counts());
}

// invalidate leaves the entry naming an empty way, and the next fill
// takes that way for another line.
TEST_P(StaleEntry, InvalidatedWayRefilledByAnotherLine) {
  Twin twin(config());
  for (Addr line = 0; line < ways(); ++line)
    ASSERT_TRUE(twin.access(line));
  const Addr x = ways() / 2;
  ASSERT_TRUE(twin.invalidate(x));
  ASSERT_TRUE(twin.probe(x));
  ASSERT_TRUE(twin.contains(x));
  ASSERT_TRUE(twin.mark_dirty(x));
  ASSERT_TRUE(twin.invalidate(x));
  const Addr y = x + 7 * table();  // x's entry and x's old way
  ASSERT_TRUE(twin.access(y, true, 0, 0, /*store=*/true));
  ASSERT_TRUE(twin.probe(x));
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.contains(x));
  ASSERT_TRUE(twin.access(x));  // evicts the LRU line, not y
  ASSERT_TRUE(twin.probe(y));
  EXPECT_FALSE(twin.probe_hit());
  ASSERT_TRUE(twin.invalidate(y));  // dirty
  ASSERT_TRUE(twin.same_counts());
}

// flush keeps every entry; refilled in reverse, each line lands in a way
// its old entry does not name.
TEST_P(StaleEntry, FlushThenReverseRefill) {
  Twin twin(config());
  for (Addr line = 0; line < ways(); ++line)
    ASSERT_TRUE(twin.access(line, true, 0, 0, /*store=*/true));
  twin.flush();
  for (Addr line = 0; line < ways(); ++line) {
    ASSERT_TRUE(twin.probe(line));
    EXPECT_FALSE(twin.probe_hit());
    ASSERT_TRUE(twin.contains(line));
    ASSERT_TRUE(twin.mark_dirty(line));
  }
  for (Addr line = ways(); line-- > 0;) {
    ASSERT_TRUE(twin.probe(0));
    ASSERT_TRUE(twin.access(line));
  }
  for (Addr line = 0; line < ways(); ++line) {
    ASSERT_TRUE(twin.probe(line, /*store=*/line % 2 == 0));
    EXPECT_TRUE(twin.probe_hit());
    ASSERT_TRUE(twin.invalidate(line));
  }
  ASSERT_TRUE(twin.same_counts());
}

INSTANTIATE_TEST_SUITE_P(OneSet, StaleEntry, ::testing::Values(8u, 20u));

// With insert_age far beyond the clock, every fill enters at the oldest
// stamp and only hits lift a line: the victim must be the lowest way
// among the never-hit lines, as in the reference.
TEST(CacheDiff, LowestWayWinsStampTies) {
  CacheConfig c{4 * 8 * 64, 64, 8, "ties"};
  c.insert_age = 1'000'000;
  Cache fast(c);
  reference::ReferenceCache ref(c);
  // Fill set 0 (lines 0, 4, ..., 28), hit ways 0 and 3, then miss twice.
  for (Addr line = 0; line < 32; line += 4)
    ASSERT_TRUE(same_outcome(fast.access(line, 0), ref.access(line, 0)));
  ASSERT_TRUE(same_outcome(fast.access(0, 0), ref.access(0, 0)));
  ASSERT_TRUE(same_outcome(fast.access(12, 0), ref.access(12, 0)));
  const auto first = fast.access(32, 0);
  ASSERT_TRUE(same_outcome(first, ref.access(32, 0)));
  EXPECT_EQ(first.evicted_line, 4u);  // way 1: lowest never-hit way
  const auto second = fast.access(36, 0);
  ASSERT_TRUE(same_outcome(second, ref.access(36, 0)));
  EXPECT_EQ(second.evicted_line, 32u);  // way 1 again: refilled oldest
}

}  // namespace
}  // namespace am::sim
