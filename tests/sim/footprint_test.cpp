// Host footprint of the simulated machine. An engine builds the caches and
// stream prefetchers of every core and socket, and a run touches only a
// few of them, so each sizes its arrays at first use. These tests read the
// process's resident set (/proc/self/statm) around engine construction
// and around a short run on one core.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>

#include "interfere/csthr_agent.hpp"
#include "sim/engine.hpp"

namespace am::sim {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

/// Current resident set of this process, in bytes.
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// A full-scale 12-node Xeon20MB: 24 sockets of 20 MB L3 and 192 cores.
// Sized eagerly, its caches alone would be about 206 MB.
MachineConfig full_machine() { return MachineConfig::xeon20mb_scaled(1, 12); }

TEST(Footprint, UntouchedFullScaleEngineIsSmall) {
  const std::uint64_t before = resident_bytes();
  Engine engine(full_machine());
  const std::uint64_t after = resident_bytes();
  EXPECT_LT(after - std::min(after, before), 16 * kMiB);
  EXPECT_EQ(engine.memory().l3(0).resident_lines(), 0u);
}

// One CSThr on one core sizes that core's caches and prefetcher and one
// socket's L3 (its tags, stamps and records plus the line->slot table:
// about 16 MB at full scale), and nothing else.
TEST(Footprint, OneCoreRunSizesOneSocket) {
  const std::uint64_t before = resident_bytes();
  Engine engine(full_machine());
  engine.add_agent(std::make_unique<interfere::CSThrAgent>(
                       engine.memory(), interfere::CSThrConfig{}),
                   /*core=*/0);
  engine.run(/*max_cycles=*/5000);
  const std::uint64_t after = resident_bytes();
  EXPECT_GT(engine.memory().l3(0).resident_lines(), 0u);
  EXPECT_EQ(engine.memory().l3(1).resident_lines(), 0u);
  EXPECT_LT(after - std::min(after, before), 48 * kMiB);
}

}  // namespace
}  // namespace am::sim
