// Differential test: the flat-tag sim::Cache against the array-of-structs
// reference model it replaced (reference_cache.hpp). Both are driven with
// the same seeded operation traces — access, touch, mark_dirty (with right,
// stale and arbitrary slot hints), invalidate, contains and flush — over a
// grid of geometries and policies. Every AccessOutcome field and every
// return value must agree after each operation, and occupancy and resident
// counts must agree along the way and at the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>

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
  os << " insert_age=" << c.insert_age << " filter=" << c.filter;
  return os.str();
}

std::string show(const Cache::AccessOutcome& o) {
  std::ostringstream os;
  os << "{hit " << o.hit << ", evicted " << o.evicted;
  os << ", evicted_dirty " << o.evicted_dirty;
  os << ", evicted_line " << o.evicted_line;
  os << ", evicted_sharers " << o.evicted_sharers;
  os << ", slot " << o.slot << "}";
  return os.str();
}

::testing::AssertionResult same_outcome(const Cache::AccessOutcome& got,
                                        const Cache::AccessOutcome& want) {
  if (got.hit == want.hit && got.evicted == want.evicted &&
      got.evicted_dirty == want.evicted_dirty &&
      got.evicted_line == want.evicted_line &&
      got.evicted_sharers == want.evicted_sharers && got.slot == want.slot)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << show(got) << ", want " << show(want);
}

::testing::AssertionResult same_counts(const Cache& fast,
                                       const reference::ReferenceCache& ref) {
  std::ostringstream got;
  std::ostringstream want;
  got << "resident " << fast.resident_lines();
  want << "resident " << ref.resident_lines();
  for (std::uint16_t owner = 0; owner < kOwners; ++owner) {
    got << ", owner " << owner << ": " << fast.occupancy_lines(owner);
    want << ", owner " << owner << ": " << ref.occupancy_lines(owner);
  }
  if (got.str() == want.str()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "counts " << got.str() << ", want " << want.str();
}

// Runs one seeded trace through both models. With the filter on, accesses
// go the way MemorySystem issues them: try_fast_hit first, access() only
// when the filter misses.
::testing::AssertionResult same_behaviour(const CacheConfig& c,
                                          std::uint64_t seed) {
  Cache fast(c);
  reference::ReferenceCache ref(c);
  Rng rng(seed);
  const std::uint64_t lines = c.num_lines();
  // Where each line was last seen: hints that are right while the line
  // stays resident and stale after it moves or leaves.
  std::unordered_map<Addr, std::uint32_t> last_slot;
  for (int op = 0; op < kOps; ++op) {
    // Three times the capacity keeps every set under eviction pressure. A
    // few high address bits exercise the hashed index.
    const Addr low = rng.bounded(lines * 3);
    const Addr line = low + (rng.bounded(4) << 40);
    const auto fail = [&] {
      std::ostringstream os;
      os << describe(c) << " seed=" << seed << ": op " << op;
      os << " line " << line << ": ";
      return ::testing::AssertionFailure() << os.str();
    };
    const std::uint64_t kind = rng.bounded(20);
    if (kind < 12) {
      const auto owner = static_cast<std::uint16_t>(rng.bounded(kOwners));
      std::uint32_t sharer = 0;
      if (rng.bounded(3) != 0) sharer = 1u << rng.bounded(32);
      const bool store = rng.bounded(3) == 0;
      const Cache::AccessOutcome want = ref.access(line, owner, sharer, store);
      Cache::AccessOutcome got;
      got.hit = fast.try_fast_hit(line, sharer, store, &got.slot);
      if (!got.hit) got = fast.access(line, owner, sharer, store);
      const auto same = same_outcome(got, want);
      if (!same) return fail() << same.message();
      last_slot[line] = want.slot;
    } else if (kind < 14) {
      std::uint32_t hint = 0;  // the default hint
      const std::uint64_t pick = rng.bounded(3);
      const auto it = last_slot.find(line);
      if (pick == 0 && it != last_slot.end()) hint = it->second;
      if (pick == 1) hint = static_cast<std::uint32_t>(rng.bounded(lines));
      const bool want = ref.mark_dirty(line);
      if (fast.mark_dirty(line, hint) != want)
        return fail() << "mark_dirty(hint " << hint << ") != " << want;
    } else if (kind < 16) {
      fast.touch(line);
      ref.touch(line);
    } else if (kind < 18) {
      const bool want = ref.invalidate(line);
      if (fast.invalidate(line) != want)
        return fail() << "invalidate != " << want;
    } else if (kind < 19) {
      const bool want = ref.contains(line);
      if (fast.contains(line) != want) return fail() << "contains != " << want;
    } else if (rng.bounded(400) == 0) {
      fast.flush();
      ref.flush();
    }
    if (op % 1000 == 999) {
      const auto counts = same_counts(fast, ref);
      if (!counts) return fail() << counts.message();
    }
  }
  const auto counts = same_counts(fast, ref);
  if (!counts) return ::testing::AssertionFailure() << counts.message();
  return ::testing::AssertionSuccess();
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
          for (const std::uint64_t age : age_grid)
            for (const bool filter : {false, true}) {
              CacheConfig c{sets * ways * 64, 64, ways, "diff"};
              c.set_hash = hash;
              c.replacement = policy;
              c.insert_age = age;
              c.filter = filter;
              ASSERT_TRUE(same_behaviour(c, seed++));
            }
  EXPECT_EQ(seed, 1u + 4 * 2 * 2 * 2 * 3 * 2);
}

// An L3-shaped cache (20 ways, 256 sets): long-lived lines and deep
// victim scans.
TEST(CacheDiff, MatchesReferenceOnL3Geometry) {
  std::uint64_t seed = 100;
  for (const SetHash hash : {SetHash::kMask, SetHash::kH3}) {
    CacheConfig c{320 * 1024, 64, 20, "L3"};
    c.set_hash = hash;
    ASSERT_TRUE(same_behaviour(c, seed++));
  }
}

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
