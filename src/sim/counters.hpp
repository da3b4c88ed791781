#pragma once
// Per-core hardware-counter-style event counts, mirroring what the paper
// reads from the real Xeon's PMU (L3 miss rate, bandwidth, cycles).
#include <cstdint>

#include "sim/types.hpp"

namespace am::sim {

/// Plain aggregable event counts (operator+= sums field-wise; totals over
/// cores/sockets are built that way). The architectural fields — everything
/// up to stall_cycles — are part of the determinism contract: equal
/// (MachineConfig, seed, agents) runs produce equal counts, and the
/// ResultStore record format serializes exactly that field set.
struct Counters {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t mem_accesses = 0;      // demand misses served by DRAM
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_dropped = 0;  // dropped due to bus saturation
  std::uint64_t writebacks = 0;
  std::uint64_t bytes_from_mem = 0;    // demand + prefetch fills
  std::uint64_t compute_cycles = 0;
  std::uint64_t stall_cycles = 0;

  /// Host-speed diagnostics for the inline L1 and L2 probes through the
  /// caches' line->slot tables, not architectural events: a probe misses
  /// when the table entry is stale, even on a resident line, so they
  /// depend on the host-side table layout. Deliberately excluded from the
  /// ResultStore record format and record equality for that reason.
  std::uint64_t l1_filter_hits = 0;          // L1 hits resolved by the probe
  std::uint64_t l1_filter_fallthroughs = 0;  // probe misses → L1 set scan
  std::uint64_t l2_filter_hits = 0;          // L2 hits resolved by the probe
  std::uint64_t l2_filter_fallthroughs = 0;  // probe misses → L2 set scan

  std::uint64_t accesses() const { return loads + stores; }

  /// Accesses that reached the L3 (i.e. missed both private levels).
  std::uint64_t l3_accesses() const { return l3_hits + mem_accesses; }

  /// Paper's headline metric: fraction of all demand accesses served by
  /// DRAM. With an inclusive L3 this equals "miss in L3 or any level above".
  double l3_miss_rate() const {
    const auto total = accesses();
    return total ? static_cast<double>(mem_accesses) /
                       static_cast<double>(total)
                 : 0.0;
  }

  /// Miss rate counted only among accesses that reached the L3.
  double l3_local_miss_rate() const {
    const auto total = l3_accesses();
    return total ? static_cast<double>(mem_accesses) /
                       static_cast<double>(total)
                 : 0.0;
  }

  Counters& operator+=(const Counters& o) {
    loads += o.loads;
    stores += o.stores;
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    l3_hits += o.l3_hits;
    mem_accesses += o.mem_accesses;
    prefetch_issued += o.prefetch_issued;
    prefetch_dropped += o.prefetch_dropped;
    writebacks += o.writebacks;
    bytes_from_mem += o.bytes_from_mem;
    compute_cycles += o.compute_cycles;
    stall_cycles += o.stall_cycles;
    l1_filter_hits += o.l1_filter_hits;
    l1_filter_fallthroughs += o.l1_filter_fallthroughs;
    l2_filter_hits += o.l2_filter_hits;
    l2_filter_fallthroughs += o.l2_filter_fallthroughs;
    return *this;
  }
};

}  // namespace am::sim
