#include "sim/cache.hpp"

#include <gtest/gtest.h>

namespace am::sim {
namespace {

CacheConfig tiny() { return {1024, 64, 4, "tiny"}; }  // 4 sets x 4 ways

TEST(CacheConfig, GeometryDerivation) {
  const auto c = tiny();
  EXPECT_EQ(c.num_lines(), 16u);
  EXPECT_EQ(c.num_sets(), 4u);
}

TEST(CacheConfig, ValidateRejectsBadGeometry) {
  CacheConfig c{0, 64, 4, "bad"};
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {100, 64, 4, "bad"};  // size not multiple of line
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = {320, 64, 4, "bad"};  // 5 lines, not multiple of 4 ways
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(CacheConfig, ValidateRejectsMoreLinesThanSlotsHold) {
  // Slots are 32-bit: 2^32 - 1 lines at most (checked without allocating).
  CacheConfig c{(std::uint64_t{1} << 32) * 64, 64, 8, "huge"};
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.size_bytes = ((std::uint64_t{1} << 32) - 8) * 64;  // largest 8-way fit
  EXPECT_NO_THROW(c.validate());
}

TEST(Cache, MissThenHit) {
  Cache cache(tiny());
  EXPECT_FALSE(cache.access(100, 0).hit);
  EXPECT_TRUE(cache.access(100, 0).hit);
  EXPECT_TRUE(cache.contains(100));
}

TEST(Cache, LruEvictionOrder) {
  Cache cache(tiny());
  // Fill one set: lines mapping to set 0 are multiples of 4.
  for (Addr line = 0; line < 16; line += 4) EXPECT_FALSE(cache.access(line, 0).hit);
  // Touch line 0 so line 4 becomes LRU.
  EXPECT_TRUE(cache.access(0, 0).hit);
  const auto out = cache.access(16, 0);  // maps to set 0, evicts LRU
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 4u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(4));
}

TEST(Cache, AssociativityConflictMisses) {
  Cache cache(tiny());
  // 5 distinct lines in the same set with 4 ways: cycling misses every time.
  for (int round = 0; round < 3; ++round)
    for (Addr line = 0; line < 20; line += 4)
      EXPECT_FALSE(cache.access(line, 0).hit) << "line " << line;
}

TEST(Cache, DirtyTracking) {
  Cache cache(tiny());
  cache.access(8, 0, 0, /*is_store=*/true);
  // Evict it: fill the set with 4 more lines.
  Cache::AccessOutcome out;
  bool saw_dirty_eviction = false;
  for (Addr line = 12; line <= 28; line += 4) {
    out = cache.access(line, 0);
    if (out.evicted && out.evicted_line == 8) {
      EXPECT_TRUE(out.evicted_dirty);
      saw_dirty_eviction = true;
    }
  }
  EXPECT_TRUE(saw_dirty_eviction);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  Cache cache(tiny());
  cache.access(5, 0, 0, true);
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_FALSE(cache.contains(5));
  EXPECT_FALSE(cache.invalidate(5));  // already gone
  cache.access(6, 0, 0, false);
  EXPECT_FALSE(cache.invalidate(6));  // clean
}

TEST(Cache, SharerMaskAccumulates) {
  Cache cache(tiny());
  cache.access(3, 0, 0b01);
  cache.access(3, 1, 0b10);
  // Evict line 3 (set 3: lines 3,7,11,15,19 map there).
  Cache::AccessOutcome out;
  for (Addr line = 7; line <= 19; line += 4) {
    out = cache.access(line, 0);
    if (out.evicted && out.evicted_line == 3) {
      EXPECT_EQ(out.evicted_sharers, 0b11u);
    }
  }
}

TEST(Cache, OwnerOccupancy) {
  Cache cache(tiny());
  cache.access(0, /*owner=*/1);
  cache.access(1, 1);
  cache.access(2, 2);
  EXPECT_EQ(cache.occupancy_lines(1), 2u);
  EXPECT_EQ(cache.occupancy_lines(2), 1u);
  EXPECT_EQ(cache.resident_lines(), 3u);
}

TEST(Cache, TouchRefreshesLru) {
  Cache cache(tiny());
  for (Addr line = 0; line < 16; line += 4) cache.access(line, 0);
  cache.touch(0);  // 0 is now MRU; 4 is LRU
  const auto out = cache.access(20, 0);
  EXPECT_EQ(out.evicted_line, 4u);
}

TEST(Cache, FlushEmptiesEverything) {
  Cache cache(tiny());
  for (Addr line = 0; line < 8; ++line) cache.access(line, 0);
  cache.flush();
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.contains(0));
}

TEST(Cache, NonPowerOfTwoSetCount) {
  // 3 sets: exercise the modulo path.
  Cache cache(CacheConfig{3 * 64 * 2, 64, 2, "np2"});
  EXPECT_EQ(cache.config().num_sets(), 3u);
  EXPECT_FALSE(cache.access(0, 0).hit);
  EXPECT_FALSE(cache.access(3, 0).hit);  // same set (0 % 3 == 3 % 3)
  EXPECT_TRUE(cache.access(0, 0).hit);
  const auto out = cache.access(6, 0);  // evicts LRU of set 0 => line 3
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 3u);
}

TEST(Cache, FullyAssociativeSingleSet) {
  Cache cache(CacheConfig{8 * 64, 64, 8, "fa"});
  EXPECT_EQ(cache.config().num_sets(), 1u);
  for (Addr line = 0; line < 8; ++line) cache.access(line, 0);
  EXPECT_EQ(cache.resident_lines(), 8u);
  const auto out = cache.access(8, 0);
  EXPECT_EQ(out.evicted_line, 0u);  // strict LRU across the whole cache
}


TEST(Cache, DistantInsertionProtectsReusedLines) {
  // With insert_age, a streaming (one-touch) line is evicted before lines
  // that have been re-touched, even if the stream line is newer.
  CacheConfig cfg{1024, 64, 4, "srrip", /*insert_age=*/8};
  Cache cache(cfg);
  // Fill set 0 with 4 lines and re-touch them all (earning MRU stamps).
  for (Addr line = 0; line < 16; line += 4) cache.access(line, 0);
  for (Addr line = 0; line < 16; line += 4) cache.access(line, 0);
  // A streaming line displaces the LRU (line 0)...
  auto out = cache.access(16, 0);
  EXPECT_EQ(out.evicted_line, 0u);
  // ...but the *next* streaming line displaces the stream line 16, not the
  // re-touched lines 4/8/12: 16 entered with an aged stamp.
  out = cache.access(20, 0);
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 16u);
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(8));
  EXPECT_TRUE(cache.contains(12));
}

TEST(Cache, DistantInsertionReTouchEarnsProtection) {
  CacheConfig cfg{1024, 64, 4, "srrip", /*insert_age=*/8};
  Cache cache(cfg);
  for (Addr line = 0; line < 16; line += 4) cache.access(line, 0);
  for (Addr line = 4; line < 16; line += 4) cache.access(line, 0);
  cache.access(16, 0);       // evicts 0 (only non-retouched line)
  cache.access(16, 0);       // re-touch: 16 is now protected
  const auto out = cache.access(20, 0);
  EXPECT_TRUE(out.evicted);
  EXPECT_NE(out.evicted_line, 16u);  // some aged line goes instead
  EXPECT_TRUE(cache.contains(16));
}


TEST(Cache, RandomReplacementIsDeterministicAndInRange) {
  CacheConfig cfg{1024, 64, 4, "rand"};
  cfg.replacement = Replacement::kRandom;
  auto run = [&] {
    Cache cache(cfg);
    std::vector<Addr> evicted;
    for (Addr line = 0; line < 40; line += 4) {
      const auto out = cache.access(line, 0);
      if (out.evicted) evicted.push_back(out.evicted_line);
    }
    return evicted;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);            // deterministic victim stream
  EXPECT_FALSE(a.empty());
  // Random replacement can evict recently inserted lines, unlike LRU.
}

TEST(Cache, RandomReplacementFillsInvalidWaysFirst) {
  CacheConfig cfg{1024, 64, 4, "rand"};
  cfg.replacement = Replacement::kRandom;
  Cache cache(cfg);
  for (Addr line = 0; line < 16; line += 4)
    EXPECT_FALSE(cache.access(line, 0).evicted);  // filling, no evictions
  EXPECT_EQ(cache.resident_lines(), 4u);
}

}  // namespace
}  // namespace am::sim
