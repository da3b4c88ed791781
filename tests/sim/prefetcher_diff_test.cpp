// Differential test: the indexed sim::StreamPrefetcher against the
// scan-based reference model it replaced. Both are driven with the same
// seeded miss sequences over a grid of configurations, and after every miss
// their prefetch candidates and confirmed-stream counts must agree exactly.
//
// The sequences are drawn from one seed per run (tests/seeded.hpp). Seed 0,
// the default, draws the sequences this test has always drawn; CI runs a
// wider range under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_prefetcher.hpp"
#include "seeded.hpp"
#include "sim/prefetcher.hpp"

namespace am::sim {
namespace {

using Sequence = std::vector<Addr>;

constexpr std::size_t kMisses = 1500;

/// The first sequence seed of this run's repetition: seeds 0, 1, ...
/// give disjoint ranges of 2^32 sequence seeds each.
std::uint64_t base_seed() { return test::repetition_seed() << 32; }

std::string describe(const PrefetcherConfig& c) {
  std::ostringstream os;
  os << "num_streams=" << c.num_streams << " degree=" << c.degree
     << " confirm_threshold=" << c.confirm_threshold
     << " max_stride_lines=" << c.max_stride_lines
     << " page_lines=" << c.page_lines;
  return os.str();
}

::testing::AssertionResult same_decisions(const PrefetcherConfig& c,
                                          const Sequence& misses) {
  StreamPrefetcher fast(c);
  reference::ReferencePrefetcher ref(c);
  std::vector<Addr> got;
  std::vector<Addr> want;
  for (std::size_t i = 0; i < misses.size(); ++i) {
    got.clear();
    want.clear();
    fast.on_miss(misses[i], got);
    ref.on_miss(misses[i], want);
    if (got != want || fast.streams_confirmed() != ref.streams_confirmed()) {
      return ::testing::AssertionFailure()
             << describe(c) << ": diverged at miss " << i << " (line "
             << misses[i] << "): " << got.size() << " vs " << want.size()
             << " candidates, " << fast.streams_confirmed() << " vs "
             << ref.streams_confirmed() << " confirmed";
    }
  }
  return ::testing::AssertionSuccess();
}

// Misses from `walkers` interleaved constant-stride walkers. Strides reach
// past max_stride_lines so some walkers are untrackable; a walker that
// would step below line 0 restarts at a fresh base.
Sequence strided(am::Rng& rng, const PrefetcherConfig& c, std::size_t walkers,
                 Addr base_range, bool descending) {
  struct Walker {
    Addr line;
    std::int64_t stride;
  };
  const std::uint64_t reach = std::uint64_t{c.max_stride_lines} + 2;
  auto fresh = [&] {
    auto stride = static_cast<std::int64_t>(rng.bounded(reach) + 1);
    if (descending || rng.bounded(2) == 0) stride = -stride;
    return Walker{rng.bounded(base_range), stride};
  };
  std::vector<Walker> live;
  for (std::size_t k = 0; k < walkers; ++k) live.push_back(fresh());
  Sequence seq;
  while (seq.size() < kMisses) {
    Walker& w = live[rng.bounded(live.size())];
    seq.push_back(w.line);
    const auto next = static_cast<std::int64_t>(w.line) + w.stride;
    if (next < 0) {
      w = fresh();
    } else {
      w.line = static_cast<Addr>(next);
    }
  }
  return seq;
}

Sequence random_sparse(am::Rng& rng, const PrefetcherConfig&) {
  Sequence seq;
  for (std::size_t i = 0; i < kMisses; ++i)
    seq.push_back(rng.bounded(1u << 20));
  return seq;
}

// Dense enough that most misses land within the pairing window of some
// fresh stream, exercising pairing and its tie-break.
Sequence random_dense(am::Rng& rng, const PrefetcherConfig&) {
  Sequence seq;
  for (std::size_t i = 0; i < kMisses; ++i)
    seq.push_back(4096 + rng.bounded(512));
  return seq;
}

// From one walker up to more walkers than any table in the grid holds.
Sequence strided_walk(am::Rng& rng, const PrefetcherConfig& c) {
  const std::size_t walkers[] = {1, 3, 40, 120};
  return strided(rng, c, walkers[rng.bounded(4)], 1u << 20, false);
}

Sequence mixed(am::Rng& rng, const PrefetcherConfig& c) {
  Sequence seq = strided(rng, c, 12, 1u << 16, false);
  for (auto& line : seq)
    if (rng.bounded(10) < 3) line = rng.bounded(1u << 16);
  return seq;
}

// Descending walkers close to line 0: predictions go negative and must
// never be matched.
Sequence negative_stride(am::Rng& rng, const PrefetcherConfig& c) {
  return strided(rng, c, 6, 256, true);
}

// Short ascending walkers that start just below a page boundary.
Sequence page_edge(am::Rng& rng, const PrefetcherConfig& c) {
  Sequence seq;
  while (seq.size() < kMisses) {
    const Addr edge = (1 + rng.bounded(1024)) * c.page_lines;
    const Addr stride = 1 + rng.bounded(4);
    Addr line = edge - 1 - rng.bounded(std::min<Addr>(8, c.page_lines));
    for (int step = 0; step < 6; ++step, line += stride) seq.push_back(line);
  }
  seq.resize(kMisses);
  return seq;
}

// The same line repeated, and a handful of nearby lines revisited: fresh
// streams pile up on one line, so pairing sees ties.
Sequence repeated_line(am::Rng& rng, const PrefetcherConfig&) {
  const Addr hot[] = {500, 501, 503, 508, 520};
  Sequence seq;
  while (seq.size() < kMisses) {
    const Addr line = hot[rng.bounded(5)];
    for (auto r = 1 + rng.bounded(4); r > 0; --r) seq.push_back(line);
  }
  seq.resize(kMisses);
  return seq;
}

struct Pattern {
  const char* name;
  Sequence (*make)(am::Rng&, const PrefetcherConfig&);
};

constexpr Pattern kPatterns[] = {
    {"random-sparse", random_sparse},
    {"random-dense", random_dense},
    {"strided", strided_walk},
    {"mixed", mixed},
    {"negative-stride", negative_stride},
    {"page-edge", page_edge},
    {"repeated-line", repeated_line},
};

TEST(PrefetcherDiff, MatchesReferenceAcrossConfigGrid) {
  std::uint64_t seed = base_seed() + 1;
  // 63, 65 and 128 streams straddle the one-word/two-word bitmask boundary
  // of the production indexes; they come last so the others keep their
  // sequences.
  for (const std::uint32_t streams : {1u, 2u, 8u, 64u, 100u, 63u, 65u, 128u})
    for (const std::uint32_t confirm : {0u, 1u, 2u, 3u})
      for (const std::uint32_t degree : {0u, 1u, 4u})
        for (const std::uint32_t stride : {0u, 1u, 8u, 64u}) {
          PrefetcherConfig c;
          c.num_streams = streams;
          c.confirm_threshold = confirm;
          c.degree = degree;
          c.max_stride_lines = stride;
          for (const Pattern& p : kPatterns) {
            am::Rng rng(seed++);
            ASSERT_TRUE(same_decisions(c, p.make(rng, c))) << p.name;
          }
        }
}

TEST(PrefetcherDiff, MatchesReferenceAcrossPageSizes) {
  std::uint64_t seed = base_seed() + 1000;
  for (const std::uint32_t page : {1u, 3u, 64u, 4096u}) {
    PrefetcherConfig c;
    c.num_streams = 16;
    c.confirm_threshold = 1;
    c.degree = 4;
    c.page_lines = page;
    for (const Pattern& p : kPatterns) {
      am::Rng rng(seed++);
      ASSERT_TRUE(same_decisions(c, p.make(rng, c))) << p.name;
    }
  }
}

// Two streams predicting the same next line: the lower slot continues,
// whichever of them was armed first.
TEST(PrefetcherDiff, LowestSlotWinsWhenTwoStreamsPredictSameLine) {
  PrefetcherConfig c;
  c.num_streams = 8;
  c.confirm_threshold = 1;
  c.degree = 1;
  // Slot 0 walks up from 100, slot 1 down from 116; both predict 108.
  const Sequence up_first = {100, 104, 116, 112, 108};
  const Sequence down_first = {100, 116, 112, 104, 108};
  for (const Sequence& seq : {up_first, down_first}) {
    ASSERT_TRUE(same_decisions(c, seq));
    StreamPrefetcher pf(c);
    std::vector<Addr> out;
    for (Addr line : seq) {
      out.clear();
      pf.on_miss(line, out);
    }
    // Slot 0's stride is +4, so it prefetches 112; slot 1 would give 104.
    ASSERT_EQ(out, std::vector<Addr>{112});
  }
}

}  // namespace
}  // namespace am::sim
