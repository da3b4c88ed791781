#pragma once
// Machine topology and timing parameters. The default preset reproduces the
// paper's "Xeon20MB" platform (Table I): 2-socket nodes of 8-core Intel
// Xeon E5-2670, 20 MB 20-way shared L3 per socket, ~17 GB/s memory
// bandwidth per socket (STREAM), QDR InfiniBand between nodes.
#include <cstdint>
#include <string>

#include "sim/cache.hpp"
#include "sim/prefetcher.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Which MemoryBackend a socket's memory is modelled by (see
/// sim/memory_backend.hpp). It changes simulated results, so it — and
/// the DramConfig knobs when banked — enters measure::machine_fingerprint
/// and therefore result-store keys.
enum class MemBackendKind : std::uint8_t {
  kChannel = 0,     // serially occupied pipe (the original model; default)
  kBankedDram = 1,  // banked DRAM with row buffers + refresh
};

/// Timing/geometry of the banked DRAM backend (sim/banked_dram.hpp).
/// All timings are CPU cycles of the simulated machine; the presets are
/// quoted at the Xeon20MB 2.6 GHz clock.
struct DramConfig {
  std::uint32_t channels = 2;  // per socket; line-interleaved
  std::uint32_t banks = 8;     // per channel
  /// Row-buffer coverage in bytes: consecutive lines within one row hit
  /// the open row. Must be a positive multiple of the cache line size.
  std::uint32_t row_bytes = 8192;
  Cycles t_rcd = 36;  // activate -> column command (~14 ns at 2.6 GHz)
  Cycles t_rp = 36;   // precharge
  Cycles t_cas = 36;  // column command -> first data
  /// Controller + on-chip interconnect latency added to every access
  /// before the DRAM command sequence. Chosen so an idle row-empty
  /// access lands near the channel model's mem_latency, keeping the two
  /// backends comparable at zero load.
  Cycles base_latency = 90;
  /// Per-bank refresh period (tREFI-class; ~7.8 us at 2.6 GHz is 20280).
  /// 0 disables refresh.
  Cycles refresh_interval = 20280;
  /// Bank-unavailable window per refresh (tRFC-class; ~350 ns is 910).
  Cycles refresh_cycles = 910;

  /// Throws std::invalid_argument on an inconsistent configuration
  /// (empty geometry, row_bytes not a multiple of `line_bytes`, or a
  /// refresh window that saturates the bank).
  void validate(std::uint32_t line_bytes) const;

  /// DDR4-2400-class defaults: few channels, large rows, slow refresh.
  static DramConfig ddr4();
  /// HBM-class: many narrow channels, small rows, more banks — higher
  /// bank-level parallelism, less per-stream row locality.
  static DramConfig hbm();
};

struct MachineConfig {
  std::string name = "Xeon20MB";

  std::uint32_t nodes = 1;
  std::uint32_t sockets_per_node = 2;
  std::uint32_t cores_per_socket = 8;

  double frequency_ghz = 2.6;

  CacheConfig l1{32 * 1024, 64, 8, "L1D"};
  CacheConfig l2{256 * 1024, 64, 8, "L2"};
  CacheConfig l3{20 * 1024 * 1024, 64, 20, "L3"};

  Cycles l1_latency = 4;
  Cycles l2_latency = 12;
  Cycles l3_latency = 42;
  Cycles mem_latency = 180;  // DRAM latency beyond bus occupancy

  /// Peak memory bandwidth per socket, bytes per second.
  double mem_bandwidth_bytes_per_sec = 17.0e9;
  /// Bus occupancy of a write-back relative to a demand fill. Memory
  /// controllers drain evictions through write-combining buffers at lower
  /// effective cost than demand reads; 0.5 keeps read bandwidth under
  /// store-heavy streams in line with the machine's STREAM behaviour.
  double writeback_cost_factor = 0.5;
  /// Inter-node interconnect (QDR InfiniBand-class): bandwidth + latency.
  double link_bandwidth_bytes_per_sec = 5.0e9;
  Cycles link_latency = 4000;  // ~1.5 us at 2.6 GHz

  /// Maximum overlapped demand misses per core (line-fill-buffer model).
  /// Calibrated so one BWThr draws ~2.8 GB/s as measured in the paper.
  std::uint32_t max_outstanding_misses = 5;

  /// Every k-th private-cache hit refreshes the line's L3 LRU stamp,
  /// approximating the thrash protection real inclusive L3s give hot
  /// private-cache lines. 0 disables the hint.
  std::uint32_t l3_hint_interval = 16;

  /// Set-index hash of the shared L3 (sim/set_index.hpp). kMask keeps
  /// historical placement bit-identically (including the strength-reduced
  /// non-pow2 modulo); kH3 is the zsim-style hashed-LLC placement. H3
  /// CHANGES simulated results, so machine_fingerprint mixes this knob
  /// whenever it deviates from kMask.
  SetHash set_hash = SetHash::kMask;

  /// Memory-backend selection (sim/memory_backend.hpp). kChannel keeps
  /// the original pipe bit-identically; kBankedDram swaps in the banked
  /// DRAM model, whose `dram` knobs then shape results (and store keys).
  MemBackendKind mem_backend = MemBackendKind::kChannel;
  /// Banked-backend timing; ignored (and excluded from fingerprints)
  /// under kChannel.
  DramConfig dram;

  PrefetcherConfig prefetcher;

  std::uint32_t total_sockets() const { return nodes * sockets_per_node; }
  std::uint32_t total_cores() const {
    return total_sockets() * cores_per_socket;
  }
  std::uint32_t socket_of(CoreId core) const { return core / cores_per_socket; }
  std::uint32_t node_of(CoreId core) const {
    return socket_of(core) / sockets_per_node;
  }

  double cycles_to_seconds(Cycles c) const {
    return static_cast<double>(c) / (frequency_ghz * 1e9);
  }
  double mem_bytes_per_cycle() const {
    return mem_bandwidth_bytes_per_sec / (frequency_ghz * 1e9);
  }
  double link_bytes_per_cycle() const {
    return link_bandwidth_bytes_per_sec / (frequency_ghz * 1e9);
  }

  void validate() const;

  /// The paper's platform, full size.
  static MachineConfig xeon20mb(std::uint32_t nodes = 1);

  /// Geometry-preserving scale-down: cache sizes divided by `factor`
  /// (associativity, line size, latencies and bandwidth kept). Benches use
  /// this so full sweeps finish in laptop time; EXPERIMENTS.md records the
  /// factor used for each figure.
  static MachineConfig xeon20mb_scaled(std::uint32_t factor,
                                       std::uint32_t nodes = 1);
};

/// Human name of a backend kind ("channel" / "banked-dram").
const char* mem_backend_name(MemBackendKind kind);

/// Applies a `--mem-backend` CLI spelling to `machine`:
///   "channel"     — the default pipe;
///   "banked"      — banked DRAM with machine.dram as already configured;
///   "ddr4"/"hbm"  — banked DRAM with the matching DramConfig preset.
/// Throws std::invalid_argument on anything else, listing the choices.
void apply_mem_backend(MachineConfig& machine, const std::string& spec);

/// Applies a `--set-hash` CLI spelling ("mask" / "h3") to `machine`.
/// Throws std::invalid_argument on anything else, listing the choices.
void apply_set_hash(MachineConfig& machine, const std::string& spec);

}  // namespace am::sim
