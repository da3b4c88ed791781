// SetIndexer (sim/set_index.hpp): the mask mode must be bit-identical to
// the historical `addr & (sets-1)` / `addr % sets` computation — the
// magic-number reciprocal behind the non-pow2 path is exact for every
// 64-bit address, property-tested here against `%`. The H3 mode is a
// deterministic universal hash: in range, stable across indexers, and
// actually different from mask placement (it exists to change placement;
// machine_fingerprint keys it for exactly that reason).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/set_index.hpp"

namespace am::sim {
namespace {

// Every set count the test geometries and presets exercise, plus awkward
// non-powers-of-two (primes, pow2±1, large) that stress the reciprocal.
const std::uint64_t kSetCounts[] = {
    1,  2,  3,  5,  6,  7,   9,   12,  16,  20,  48,   64,
    96, 100, 127, 128, 129, 640, 1023, 1024, 16384, 1u << 20, 123456789,
    (1ull << 40) - 3};

TEST(SetIndexer, MagicModExactForRandomAddresses) {
  for (const std::uint64_t sets : kSetCounts) {
    const SetIndexer idx(SetHash::kMask, sets);
    Rng rng(0xabc123 + sets);
    for (int i = 0; i < 20000; ++i) {
      // Mix uniform 64-bit values with small line addresses (the realistic
      // range) and near-multiples of `sets` (the rounding edges).
      std::uint64_t x;
      switch (i & 3) {
        case 0: x = rng(); break;
        case 1: x = rng.bounded(1u << 20); break;
        default: x = sets * rng.bounded(1u << 16) + (i & 1 ? sets - 1 : 0);
      }
      ASSERT_EQ(idx.magic_mod(x), x % sets) << "sets " << sets << " x " << x;
      ASSERT_EQ(idx.index(x), x % sets) << "sets " << sets << " x " << x;
    }
  }
}

TEST(SetIndexer, MagicModExactAtExtremes) {
  for (const std::uint64_t sets : kSetCounts) {
    const SetIndexer idx(SetHash::kMask, sets);
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, sets - 1, sets, sets + 1,
          ~std::uint64_t{0}, ~std::uint64_t{0} - 1,
          (~std::uint64_t{0} / sets) * sets}) {
      ASSERT_EQ(idx.magic_mod(x), x % sets) << "sets " << sets << " x " << x;
    }
  }
}

TEST(SetIndexer, ZeroSetsThrows) {
  EXPECT_THROW(SetIndexer(SetHash::kMask, 0), std::invalid_argument);
  EXPECT_THROW(SetIndexer(SetHash::kH3, 0), std::invalid_argument);
}

TEST(SetIndexer, H3InRangeAndDeterministic) {
  for (const std::uint64_t sets : {std::uint64_t{1}, std::uint64_t{16},
                                   std::uint64_t{48}, std::uint64_t{1024},
                                   std::uint64_t{16384}}) {
    const SetIndexer a(SetHash::kH3, sets);
    const SetIndexer b(SetHash::kH3, sets);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t x = rng();
      const std::uint64_t s = a.index(x);
      ASSERT_LT(s, sets);
      // Same geometry => same placement, across independently constructed
      // indexers (the H3 rows are fixed-seeded, part of the machine).
      ASSERT_EQ(s, b.index(x));
    }
  }
}

TEST(SetIndexer, H3ActuallyRedistributes) {
  // A power-of-two stride aliases every access onto one set under mask
  // indexing; H3 must spread it (that is the point of hashed LLCs).
  const std::uint64_t sets = 1024;
  const SetIndexer mask(SetHash::kMask, sets);
  const SetIndexer h3(SetHash::kH3, sets);
  std::set<std::uint64_t> mask_sets, h3_sets;
  for (std::uint64_t i = 0; i < 256; ++i) {
    mask_sets.insert(mask.index(i * sets));
    h3_sets.insert(h3.index(i * sets));
  }
  EXPECT_EQ(mask_sets.size(), 1u);
  EXPECT_GT(h3_sets.size(), 100u);
  // And H3 differs from mask placement on ordinary addresses too.
  std::uint64_t differing = 0;
  for (std::uint64_t x = 0; x < 4096; ++x)
    differing += h3.index(x) != mask.index(x);
  EXPECT_GT(differing, 0u);
}

TEST(SetIndexer, CacheUnderH3StaysCoherent) {
  // A Cache built with the H3 indexer must keep its core invariants:
  // accessed lines are resident, capacity is respected, invalidation
  // works — including through the line->slot table, which indexes by low
  // line bits rather than by the hashed set.
  for (const std::uint64_t size : {std::uint64_t{24 * 1024},   // 48 sets
                                   std::uint64_t{32 * 1024}}) {  // 64 sets
    CacheConfig cfg{size, 64, 8, "h3"};
    cfg.set_hash = SetHash::kH3;
    Cache cache(cfg);
    Rng rng(7);
    const std::uint64_t space = cfg.num_lines() * 4;
    for (int i = 0; i < 20000; ++i) {
      const Addr line = rng.bounded(space);
      if (!cache.try_fast_hit(line, 1, false))
        cache.access(line, 0, 1, false);
      ASSERT_TRUE(cache.contains(line)) << "line " << line;
    }
    EXPECT_LE(cache.resident_lines(), cfg.num_lines());
    EXPECT_GT(cache.resident_lines(), cfg.num_lines() / 2);
    for (Addr line = 0; line < space; ++line)
      if (cache.contains(line)) {
        cache.invalidate(line);
        ASSERT_FALSE(cache.contains(line));
        // The table must not resurrect an invalidated line.
        ASSERT_FALSE(cache.try_fast_hit(line, 1, false));
      }
    EXPECT_EQ(cache.resident_lines(), 0u);
  }
}

TEST(SetIndexer, MaskModeMatchesLegacyCachePlacement) {
  // End-to-end pin: a mask-indexed cache behaves exactly like the
  // pre-refactor arithmetic on both pow2 (64-set) and non-pow2 (48-set)
  // geometries — same line always lands in the set the old expression
  // picked, observable through single-set conflict eviction.
  for (const std::uint64_t size : {std::uint64_t{32 * 1024},   // 64 sets
                                   std::uint64_t{24 * 1024}}) {  // 48 sets
    CacheConfig cfg{size, 64, 8, "legacy"};
    Cache cache(cfg);
    const std::uint64_t sets = cfg.num_sets();
    // Fill one set to capacity with lines that alias under `%`.
    const Addr hot = 5;
    for (std::uint64_t w = 0; w < cfg.ways; ++w)
      cache.access(hot + w * sets, 0);
    for (std::uint64_t w = 0; w < cfg.ways; ++w)
      EXPECT_TRUE(cache.contains(hot + w * sets));
    // One more aliasing line must evict from that same set...
    const auto out = cache.access(hot + cfg.ways * sets, 0);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evicted_line % sets, hot);
    // ...while a non-aliasing line must not.
    EXPECT_FALSE(cache.access(hot + 1, 0).evicted);
  }
}

}  // namespace
}  // namespace am::sim
