#pragma once
// The simulated machine: per-core private L1/L2 + stream prefetcher,
// per-socket inclusive shared L3 and finite-bandwidth memory channel,
// per-node interconnect NIC. This is the substitute for the paper's real
// Xeon20MB platform — every workload and interference thread issues its
// accesses through this component.
//
// It builds the caches and prefetchers of every core and socket of the
// machine, but each sizes its arrays at first use (see sim/cache.hpp and
// sim/prefetcher.hpp): a run pays host memory only for the cores and
// sockets its agents touch. Lookups into a never-filled cache all miss,
// so back-invalidation, occupancy and flush need no special case.
#include <memory>
#include <span>
#include <vector>

#include "sim/bandwidth.hpp"
#include "sim/cache.hpp"
#include "sim/counters.hpp"
#include "sim/machine.hpp"
#include "sim/memory_backend.hpp"
#include "sim/prefetcher.hpp"
#include "sim/types.hpp"

namespace am::sim {

struct AccessResult {
  Cycles complete = 0;  // absolute time the access finished
  Level level = Level::kL1;
};

class MemorySystem {
 public:
  explicit MemorySystem(MachineConfig config);

  /// One demand access issued at `now`; walks L1→L2→L3→DRAM, updates
  /// counters of `core`, trains the prefetcher, maintains L3 inclusivity.
  ///
  /// Inline fast path: when the L1's line->slot table resolves the access
  /// (the common case on hit-heavy workloads), only the counters/L3-hint
  /// bookkeeping below runs: the same updates as an L1 hit in
  /// access_slow(), which takes every access the table cannot resolve.
  /// Both paths are checked against an independent model of the walk
  /// (tests/sim/hierarchy_diff_test.cpp).
  AccessResult access(CoreId core, Addr addr, AccessKind kind, Cycles now) {
    const Addr line = addr >> line_shift_;
    const bool is_store = kind == AccessKind::kStore;
    if (l1_[core]->try_fast_hit(line, 0, is_store)) {
      Counters& ctr = counters_[core];
      if (is_store)
        ++ctr.stores;
      else
        ++ctr.loads;
      ++ctr.l1_hits;
      ++ctr.l1_filter_hits;
      hint_l3(core, config_.socket_of(core), line);
      return {now + config_.l1_latency, Level::kL1};
    }
    return access_slow(core, addr, kind, now);
  }

  /// A batch of *independent* accesses issued together at `now`, modelling
  /// memory-level parallelism: up to config.max_outstanding_misses DRAM
  /// misses overlap; further misses queue on the completion of earlier
  /// ones. Returns the completion time of the last access. Software-
  /// pipelined on the host: the next access's L1 set is prefetched while
  /// the current one retires through the window, which cannot change any
  /// simulated outcome.
  Cycles access_batch(CoreId core, std::span<const Addr> addrs,
                      AccessKind kind, Cycles now);

  /// Bump allocator for simulated buffers (64-byte aligned by default).
  Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

  /// Transfers `bytes` between two nodes' NICs; returns completion time.
  /// Same-node calls are invalid (use cache traffic instead).
  Cycles link_transfer(std::uint32_t node_from, std::uint32_t node_to,
                       std::uint64_t bytes, Cycles now);

  const MachineConfig& config() const { return config_; }
  Counters& counters(CoreId core) { return counters_[core]; }
  const Counters& counters(CoreId core) const { return counters_[core]; }

  Cache& l3(std::uint32_t socket) { return *l3_[socket]; }
  Cache& l1(CoreId core) { return *l1_[core]; }
  Cache& l2(CoreId core) { return *l2_[core]; }
  /// The socket's memory backend (channel pipe or banked DRAM, per
  /// config().mem_backend). See sim/memory_backend.hpp.
  MemoryBackend& mem_backend(std::uint32_t socket) {
    return *mem_backend_[socket];
  }
  StreamPrefetcher& prefetcher(CoreId core) { return *prefetcher_[core]; }

  /// Bytes of socket's L3 currently owned by lines `core` inserted.
  std::uint64_t l3_occupancy_bytes(CoreId core) const;

  /// Zeroes all counters and channel statistics; cache contents are kept
  /// (used to measure steady state after warm-up).
  void reset_stats();

  void flush_caches();

 private:
  /// The full L1→L2→L3→DRAM walk behind access(): every path the L1
  /// probe could not short-circuit. The L2 and the L3 are probed through
  /// their line->slot tables before their own set scans in Cache::access.
  AccessResult access_slow(CoreId core, Addr addr, AccessKind kind,
                           Cycles now);
  /// Removes private copies; returns true if any copy was dirty.
  bool back_invalidate(std::uint32_t socket, Addr line, std::uint32_t sharers);
  /// Handles an L3 eviction: back-invalidation + a single write-back
  /// transfer when any copy (L3 or private) was dirty.
  void handle_l3_eviction(std::uint32_t socket, CoreId core,
                          const Cache::AccessOutcome& out, Cycles now);
  void issue_prefetches(CoreId core, Addr miss_line, Cycles now);
  /// Counts a private-cache (L1 or L2) hit of `core` towards its L3 hint:
  /// every l3_hint_interval-th one refreshes the line's LRU stamp in the
  /// socket's L3. No-op when the interval is 0.
  void hint_l3(CoreId core, std::uint32_t socket, Addr line) {
    if (config_.l3_hint_interval == 0 || --hint_countdown_[core] != 0) return;
    hint_countdown_[core] = config_.l3_hint_interval;
    l3_[socket]->touch(line);
  }

  MachineConfig config_;
  std::uint32_t line_shift_;
  std::vector<std::unique_ptr<Cache>> l1_;  // per core
  std::vector<std::unique_ptr<Cache>> l2_;  // per core
  std::vector<std::unique_ptr<StreamPrefetcher>> prefetcher_;  // per core
  std::vector<std::unique_ptr<Cache>> l3_;                     // per socket
  std::vector<std::unique_ptr<MemoryBackend>> mem_backend_;  // per socket
  std::vector<std::unique_ptr<BandwidthChannel>> nic_;       // per node
  std::vector<Counters> counters_;                              // per core
  std::vector<std::uint32_t> hint_countdown_;                   // per core
  std::vector<Addr> prefetch_buf_;
  std::vector<Cycles> batch_window_;  // access_batch miss-completion window
  Addr next_alloc_ = 1 << 16;
};

}  // namespace am::sim
