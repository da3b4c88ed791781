#pragma once
// The simulated machine: per-core private L1/L2 + stream prefetcher,
// per-socket inclusive shared L3 and finite-bandwidth memory channel,
// per-node interconnect NIC. This is the substitute for the paper's real
// Xeon20MB platform — every workload and interference thread issues its
// accesses through this component.
//
// State lives in two flat vectors of by-value records. A core record
// holds everything an access of that core touches above the L3: its L1,
// L2 and stream prefetcher, its counters, its L3-hint countdown, the
// index of its socket and its bit in the L3 sharer masks. A socket record
// holds the shared L3 and the memory backend. So one L1 miss reads one
// core record and one socket record, with no pointer chase per level and
// no division to find the socket. A core names its socket by index, not
// by address, so moving a MemorySystem leaves every record valid.
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
    Core& c = cores_[core];
    if (c.l1.try_fast_hit(line, 0, is_store)) {
      Counters& ctr = c.counters;
      if (is_store)
        ++ctr.stores;
      else
        ++ctr.loads;
      ++ctr.l1_hits;
      ++ctr.l1_filter_hits;
      hint_l3(c, line);
      return {now + config_.l1_latency, Level::kL1};
    }
    return access_slow(core, line, is_store, now);
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
  Counters& counters(CoreId core) { return cores_[core].counters; }
  const Counters& counters(CoreId core) const { return cores_[core].counters; }

  Cache& l3(std::uint32_t socket) { return sockets_[socket].l3; }
  Cache& l1(CoreId core) { return cores_[core].l1; }
  Cache& l2(CoreId core) { return cores_[core].l2; }
  /// The socket's memory backend (channel pipe or banked DRAM, per
  /// config().mem_backend). See sim/memory_backend.hpp.
  MemoryBackend& mem_backend(std::uint32_t socket) {
    return *sockets_[socket].backend;
  }
  StreamPrefetcher& prefetcher(CoreId core) { return cores_[core].prefetcher; }

  /// Bytes of socket's L3 currently owned by lines `core` inserted.
  std::uint64_t l3_occupancy_bytes(CoreId core) const;

  /// Zeroes all counters and channel statistics; cache contents are kept
  /// (used to measure steady state after warm-up).
  void reset_stats();

  void flush_caches();

 private:
  /// Everything an access of one core touches above the L3.
  struct Core {
    Cache l1;
    Cache l2;
    StreamPrefetcher prefetcher;
    Counters counters;
    std::uint32_t hint_countdown;  // private hits until the next L3 hint
    std::uint32_t socket;          // index into sockets_
    std::uint32_t sharer_bit;      // this core's bit in L3 sharer masks
  };
  /// The shared level of one socket.
  struct Socket {
    Cache l3;
    std::unique_ptr<MemoryBackend> backend;
  };

  /// The full L1→L2→L3→DRAM walk behind access(): every path the L1
  /// probe could not short-circuit. The L2 and the L3 are probed through
  /// their line->slot tables before their own set scans in Cache::access.
  AccessResult access_slow(CoreId core, Addr line, bool is_store, Cycles now);
  /// Removes private copies; returns true if any copy was dirty.
  bool back_invalidate(std::uint32_t socket, Addr line, std::uint32_t sharers);
  /// Handles an L3 eviction: back-invalidation + a single write-back
  /// transfer when any copy (L3 or private) was dirty.
  void handle_l3_eviction(std::uint32_t socket, Counters& ctr,
                          const Cache::AccessOutcome& out, Cycles now);
  void issue_prefetches(Core& core, CoreId core_id, Addr miss_line, Cycles now);
  /// Counts a private-cache (L1 or L2) hit of `core` towards its L3 hint:
  /// every l3_hint_interval-th one refreshes the line's LRU stamp in the
  /// socket's L3. No-op when the interval is 0.
  void hint_l3(Core& core, Addr line) {
    if (config_.l3_hint_interval == 0 || --core.hint_countdown != 0) return;
    core.hint_countdown = config_.l3_hint_interval;
    sockets_[core.socket].l3.touch(line);
  }

  MachineConfig config_;
  std::uint32_t line_shift_;
  std::vector<Core> cores_;
  std::vector<Socket> sockets_;
  std::vector<std::unique_ptr<BandwidthChannel>> nic_;  // per node
  std::vector<Addr> prefetch_buf_;
  std::vector<Cycles> batch_window_;  // access_batch miss-completion window
  Addr next_alloc_ = 1 << 16;
};

}  // namespace am::sim
