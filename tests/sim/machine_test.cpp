#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "sim/memory_system.hpp"
#include "sim/prefetcher.hpp"

namespace am::sim {
namespace {

TEST(MachineConfig, Xeon20mbMatchesTable1) {
  const auto m = MachineConfig::xeon20mb();
  EXPECT_EQ(m.l1.size_bytes, 32u * 1024);
  EXPECT_EQ(m.l1.ways, 8u);
  EXPECT_EQ(m.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(m.l2.ways, 8u);
  EXPECT_EQ(m.l3.size_bytes, 20u * 1024 * 1024);
  EXPECT_EQ(m.l3.ways, 20u);
  EXPECT_EQ(m.l1.line_bytes, 64u);
  EXPECT_EQ(m.cores_per_socket, 8u);
  EXPECT_EQ(m.sockets_per_node, 2u);
}

TEST(MachineConfig, CoreTopologyMapping) {
  const auto m = MachineConfig::xeon20mb(/*nodes=*/2);
  EXPECT_EQ(m.total_sockets(), 4u);
  EXPECT_EQ(m.total_cores(), 32u);
  EXPECT_EQ(m.socket_of(0), 0u);
  EXPECT_EQ(m.socket_of(7), 0u);
  EXPECT_EQ(m.socket_of(8), 1u);
  EXPECT_EQ(m.node_of(15), 0u);
  EXPECT_EQ(m.node_of(16), 1u);
  EXPECT_EQ(m.node_of(31), 1u);
}

TEST(MachineConfig, CycleConversion) {
  const auto m = MachineConfig::xeon20mb();
  EXPECT_NEAR(m.cycles_to_seconds(2600000000ull), 1.0, 1e-9);
  EXPECT_NEAR(m.mem_bytes_per_cycle(), 17.0e9 / 2.6e9, 1e-9);
}

TEST(MachineConfig, ScaledPreservesGeometryRatios) {
  const auto m = MachineConfig::xeon20mb_scaled(8);
  EXPECT_EQ(m.l3.size_bytes, 20u * 1024 * 1024 / 8);
  EXPECT_EQ(m.l3.ways, 20u);
  EXPECT_EQ(m.l2.size_bytes, 32u * 1024);
  EXPECT_EQ(m.l1.size_bytes, 4u * 1024);
  // Latencies and bandwidth unchanged.
  EXPECT_EQ(m.l3_latency, MachineConfig::xeon20mb().l3_latency);
  EXPECT_DOUBLE_EQ(m.mem_bandwidth_bytes_per_sec, 17.0e9);
}

TEST(MachineConfig, ScaledClampsToMinimumLegalCache) {
  const auto m = MachineConfig::xeon20mb_scaled(1 << 20);
  // Every cache keeps at least one set per way.
  EXPECT_GE(m.l1.size_bytes, 64u * 8);
  m.l1.validate();
  m.l3.validate();
}

TEST(MachineConfig, ValidateCatchesZeroScale) {
  EXPECT_THROW(MachineConfig::xeon20mb_scaled(0), std::invalid_argument);
}

TEST(MachineConfig, ApplySetHashParsesSpellings) {
  auto m = MachineConfig::xeon20mb();
  EXPECT_EQ(m.set_hash, SetHash::kMask);  // default: historical placement
  apply_set_hash(m, "h3");
  EXPECT_EQ(m.set_hash, SetHash::kH3);
  apply_set_hash(m, "mask");
  EXPECT_EQ(m.set_hash, SetHash::kMask);
  EXPECT_THROW(apply_set_hash(m, "xor"), std::invalid_argument);
  EXPECT_EQ(std::string(set_hash_name(SetHash::kMask)), "mask");
  EXPECT_EQ(std::string(set_hash_name(SetHash::kH3)), "h3");
}

TEST(MachineConfig, ValidateCatchesBadTopology) {
  auto m = MachineConfig::xeon20mb();
  m.nodes = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = MachineConfig::xeon20mb();
  m.frequency_ghz = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = MachineConfig::xeon20mb();
  m.l2.line_bytes = 128;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(MachineConfig, ValidateCatchesSocketWiderThanSharerMask) {
  // The L3 sharer mask has one bit per core of a socket: 32 at most.
  auto m = MachineConfig::xeon20mb_scaled(256);
  m.cores_per_socket = 32;
  EXPECT_NO_THROW(m.validate());
  m.cores_per_socket = 33;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_THROW((void)MemorySystem{m}, std::invalid_argument);
}

TEST(MachineConfig, ValidateCatchesMoreCoresThanOwnerTags) {
  // Owner tags are 16-bit core ids: 65536 cores at most.
  auto m = MachineConfig::xeon20mb_scaled(256);
  m.nodes = 4096;  // 4096 nodes x 2 sockets x 8 cores = 65536
  EXPECT_NO_THROW(m.validate());
  m.nodes = 4097;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  // A topology whose 32-bit core count wraps to 0 is rejected too.
  m.nodes = 0x80000000u;
  m.sockets_per_node = 2;
  m.cores_per_socket = 1;
  EXPECT_EQ(m.total_cores(), 0u);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(MachineConfig, ValidateCatchesBadLineSize) {
  // Every level otherwise legal: each geometry is a whole number of sets.
  const auto with_line = [](std::uint32_t line) {
    auto m = MachineConfig::xeon20mb_scaled(256);
    m.l1 = {std::uint64_t{line} * 8 * 2, line, 8, "L1D"};
    m.l2 = {std::uint64_t{line} * 8 * 4, line, 8, "L2"};
    m.l3 = {std::uint64_t{line} * 20 * 8, line, 20, "L3"};
    return m;
  };
  EXPECT_NO_THROW(with_line(64).validate());
  EXPECT_NO_THROW(with_line(2).validate());
  // Not a power of two: MemorySystem could not shift addresses to lines.
  EXPECT_THROW(with_line(48).validate(), std::invalid_argument);
  EXPECT_THROW((void)MemorySystem{with_line(48)}, std::invalid_argument);
  // One-byte lines would let a line address reach Cache::kNoLine.
  EXPECT_THROW(with_line(1).validate(), std::invalid_argument);
}

TEST(MachineConfig, ValidateCatchesEmptyStreamTable) {
  // An enabled prefetcher with no stream slots has nowhere to allocate.
  auto m = MachineConfig::xeon20mb_scaled(256);
  m.prefetcher.num_streams = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_THROW((void)StreamPrefetcher{m.prefetcher}, std::invalid_argument);
  // A disabled prefetcher is never consulted, so its geometry is free.
  m.prefetcher.enabled = false;
  EXPECT_NO_THROW(m.validate());
  EXPECT_NO_THROW((void)MemorySystem{m});
}

TEST(MachineConfig, ValidateCatchesZeroPageLines) {
  // A zero page size would divide by zero on the first confirmed stream.
  auto m = MachineConfig::xeon20mb_scaled(256);
  m.prefetcher.page_lines = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  EXPECT_THROW((void)MemorySystem{m}, std::invalid_argument);
  m.prefetcher.enabled = false;
  EXPECT_NO_THROW(m.validate());
}

}  // namespace
}  // namespace am::sim
