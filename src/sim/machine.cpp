#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace am::sim {

void DramConfig::validate(std::uint32_t line_bytes) const {
  if (channels == 0 || banks == 0)
    throw std::invalid_argument("DramConfig: empty channel/bank geometry");
  if (row_bytes == 0 || line_bytes == 0 || row_bytes % line_bytes != 0)
    throw std::invalid_argument(
        "DramConfig: row_bytes must be a positive multiple of the line size");
  if (t_cas == 0)
    throw std::invalid_argument("DramConfig: t_cas must be positive");
  if (refresh_interval != 0 && refresh_cycles >= refresh_interval)
    throw std::invalid_argument(
        "DramConfig: refresh window >= interval would saturate the bank");
}

DramConfig DramConfig::ddr4() { return DramConfig{}; }

DramConfig DramConfig::hbm() {
  DramConfig d;
  d.channels = 8;
  d.banks = 16;
  d.row_bytes = 2048;
  d.t_rcd = 38;
  d.t_rp = 38;
  d.t_cas = 38;
  d.base_latency = 80;
  // Denser arrays refresh more often but with shorter windows.
  d.refresh_interval = 10140;  // ~3.9 us
  d.refresh_cycles = 420;      // ~160 ns
  return d;
}

const char* mem_backend_name(MemBackendKind kind) {
  return kind == MemBackendKind::kBankedDram ? "banked-dram" : "channel";
}

void apply_mem_backend(MachineConfig& machine, const std::string& spec) {
  if (spec == "channel") {
    machine.mem_backend = MemBackendKind::kChannel;
  } else if (spec == "banked") {
    machine.mem_backend = MemBackendKind::kBankedDram;
  } else if (spec == "ddr4") {
    machine.mem_backend = MemBackendKind::kBankedDram;
    machine.dram = DramConfig::ddr4();
  } else if (spec == "hbm") {
    machine.mem_backend = MemBackendKind::kBankedDram;
    machine.dram = DramConfig::hbm();
  } else {
    throw std::invalid_argument(
        "unknown --mem-backend '" + spec +
        "' (choices: channel, banked, ddr4, hbm)");
  }
  machine.validate();
}

void apply_set_hash(MachineConfig& machine, const std::string& spec) {
  if (spec == "mask") {
    machine.set_hash = SetHash::kMask;
  } else if (spec == "h3") {
    machine.set_hash = SetHash::kH3;
  } else {
    throw std::invalid_argument("unknown --set-hash '" + spec +
                                "' (choices: mask, h3)");
  }
  machine.validate();
}

void MachineConfig::validate() const {
  if (nodes == 0 || sockets_per_node == 0 || cores_per_socket == 0)
    throw std::invalid_argument("MachineConfig: empty topology");
  // The L3 sharer mask holds one bit per core of a socket.
  if (cores_per_socket > 32)
    throw std::invalid_argument(
        "MachineConfig: more than 32 cores per socket");
  // Cache owner tags are 16-bit core ids. Widened so the product cannot
  // wrap before the check.
  const std::uint64_t sockets = std::uint64_t{nodes} * sockets_per_node;
  if (sockets > 65536 || sockets * cores_per_socket > 65536)
    throw std::invalid_argument("MachineConfig: more than 65536 cores");
  if (frequency_ghz <= 0.0)
    throw std::invalid_argument("MachineConfig: frequency <= 0");
  if (mem_bandwidth_bytes_per_sec <= 0.0 || link_bandwidth_bytes_per_sec <= 0.0)
    throw std::invalid_argument("MachineConfig: bandwidth <= 0");
  if (max_outstanding_misses == 0)
    throw std::invalid_argument("MachineConfig: max_outstanding_misses == 0");
  l1.validate();
  l2.validate();
  l3.validate();
  if (l1.line_bytes != l2.line_bytes || l2.line_bytes != l3.line_bytes)
    throw std::invalid_argument("MachineConfig: mismatched line sizes");
  // MemorySystem shifts byte addresses by log2(line_bytes); at least one
  // bit of shift keeps every line address below 2^63, so none can equal
  // Cache::kNoLine.
  if (l1.line_bytes < 2 || !std::has_single_bit(l1.line_bytes))
    throw std::invalid_argument(
        "MachineConfig: line size must be a power of two >= 2");
  if (mem_backend == MemBackendKind::kBankedDram) dram.validate(l3.line_bytes);
  if (prefetcher.enabled) prefetcher.validate();
}

MachineConfig MachineConfig::xeon20mb(std::uint32_t nodes) {
  MachineConfig m;
  m.nodes = nodes;
  m.validate();
  return m;
}

MachineConfig MachineConfig::xeon20mb_scaled(std::uint32_t factor,
                                             std::uint32_t nodes) {
  if (factor == 0) throw std::invalid_argument("scale factor == 0");
  MachineConfig m = xeon20mb(nodes);
  m.name = "Xeon20MB/" + std::to_string(factor);
  auto scale = [&](CacheConfig& c) {
    // Keep at least one set per way so the geometry stays legal.
    const std::uint64_t min_size =
        static_cast<std::uint64_t>(c.line_bytes) * c.ways;
    c.size_bytes = std::max(min_size, c.size_bytes / factor);
  };
  scale(m.l1);
  scale(m.l2);
  scale(m.l3);
  m.validate();
  return m;
}

}  // namespace am::sim
