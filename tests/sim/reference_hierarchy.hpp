#pragma once
// Reference model of sim::MemorySystem: the composed L1 -> L2 -> L3 ->
// memory walk written out once, naively, on top of the test oracles for
// its parts (reference::ReferenceCache, reference::ReferencePrefetcher).
// It is the oracle for hierarchy_diff_test: the production walk must
// report the same completion time and serving level for every access,
// and leave the same counters, resident lines, L3 occupancy and memory
// traffic behind.
//
// What it leaves out is exactly what the production walk adds for host
// speed: no line->slot table probes (every level is one Cache::access-
// style scan), no inline L1 path, no host prefetch of the next access,
// and a multiset for the miss window. What it keeps is every simulated
// rule of the walk:
//
//  * L1, then L2, then the socket's inclusive L3, then memory; a level
//    that misses fills the line (probe-and-insert), and the access
//    completes after the latency of the level that served it, or when
//    the memory backend delivers the line.
//  * Every l3_hint_interval-th private-cache hit of a core (L1 or L2)
//    refreshes the line's LRU stamp in its L3; 0 disables the hint.
//  * A dirty L1 victim marks its line dirty in the L2, or, when the L2
//    no longer holds it, in the L3. A dirty L2 victim marks the L3 copy.
//  * An L2 miss trains the core's stream prefetcher. Each candidate not
//    already in the L3 is dropped when the socket's backend is queued
//    beyond two memory latencies; otherwise it is sent to memory
//    (posted) and filled into the L3 without a sharer bit.
//  * Every L3 fill, demand or prefetch, may evict. The victim's sharers
//    lose their L1 and L2 copies, and when the victim or any of those
//    copies was dirty, one posted write-back of line_bytes x
//    writeback_cost_factor bytes goes to memory and counts against the
//    core whose fill caused it.
//  * A batch issues its accesses in order at `now`; once
//    max_outstanding_misses memory misses are in flight, the next access
//    waits for the earliest of them to complete.
//
// Below the L3 it uses the production make_memory_backend(config):
// memory_backend_test checks the backends themselves, so this model
// checks how the walk calls them.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "reference_cache.hpp"
#include "reference_prefetcher.hpp"
#include "sim/counters.hpp"
#include "sim/machine.hpp"
#include "sim/memory_backend.hpp"
#include "sim/memory_system.hpp"
#include "sim/types.hpp"

namespace am::sim::reference {

class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(MachineConfig config)
      : config_(std::move(config)) {
    config_.validate();
    config_.l3.set_hash = config_.set_hash;  // the hash is the LLC's
    for (CoreId c = 0; c < config_.total_cores(); ++c) {
      l1_.emplace_back(config_.l1);
      l2_.emplace_back(config_.l2);
      prefetcher_.emplace_back(config_.prefetcher);
    }
    for (std::uint32_t s = 0; s < config_.total_sockets(); ++s) {
      l3_.emplace_back(config_.l3);
      memory_.push_back(make_memory_backend(config_));
    }
    counters_.resize(config_.total_cores());
    hint_countdown_.assign(config_.total_cores(), config_.l3_hint_interval);
  }

  AccessResult access(CoreId core, Addr addr, AccessKind kind, Cycles now) {
    const Addr line = addr / config_.l1.line_bytes;
    const bool store = kind == AccessKind::kStore;
    const std::uint32_t socket = config_.socket_of(core);
    const auto owner = static_cast<std::uint16_t>(core);
    Counters& ctr = counters_[core];
    if (store)
      ++ctr.stores;
    else
      ++ctr.loads;

    const Cache::AccessOutcome l1 = l1_[core].access(line, owner, 0, store);
    if (l1.evicted_dirty && !l2_[core].mark_dirty(l1.evicted_line))
      l3_[socket].mark_dirty(l1.evicted_line);
    if (l1.hit) {
      ++ctr.l1_hits;
      private_hit(core, line);
      return {now + config_.l1_latency, Level::kL1};
    }

    const Cache::AccessOutcome l2 = l2_[core].access(line, owner, 0, store);
    if (l2.evicted_dirty) l3_[socket].mark_dirty(l2.evicted_line);
    if (l2.hit) {
      ++ctr.l2_hits;
      private_hit(core, line);
      return {now + config_.l2_latency, Level::kL2};
    }

    prefetch(core, line, now);

    const std::uint32_t sharer = 1u << (core % config_.cores_per_socket);
    const Cache::AccessOutcome l3 =
        l3_[socket].access(line, owner, sharer, store);
    evict(socket, core, l3, now);
    if (l3.hit) {
      ++ctr.l3_hits;
      return {now + config_.l3_latency, Level::kL3};
    }

    ++ctr.mem_accesses;
    ctr.bytes_from_mem += config_.l3.line_bytes;
    return {memory_[socket]->transfer(now, line, config_.l3.line_bytes),
            Level::kMemory};
  }

  Cycles access_batch(CoreId core, std::span<const Addr> addrs,
                      AccessKind kind, Cycles now) {
    std::multiset<Cycles> in_flight;  // completions of outstanding misses
    Cycles last = now;
    for (const Addr addr : addrs) {
      Cycles issue = now;
      if (in_flight.size() == config_.max_outstanding_misses) {
        issue = std::max(now, *in_flight.begin());
        in_flight.erase(in_flight.begin());
      }
      const AccessResult res = access(core, addr, kind, issue);
      if (res.level == Level::kMemory) in_flight.insert(res.complete);
      last = std::max(last, res.complete);
    }
    return last;
  }

  const MachineConfig& config() const { return config_; }
  const Counters& counters(CoreId core) const { return counters_[core]; }
  const ReferenceCache& l1(CoreId core) const { return l1_[core]; }
  const ReferenceCache& l2(CoreId core) const { return l2_[core]; }
  const ReferenceCache& l3(std::uint32_t socket) const {
    return l3_[socket];
  }
  const MemoryBackend& mem_backend(std::uint32_t socket) const {
    return *memory_[socket];
  }

  std::uint64_t l3_occupancy_bytes(CoreId core) const {
    return l3_[config_.socket_of(core)].occupancy_lines(
               static_cast<std::uint16_t>(core)) *
           config_.l3.line_bytes;
  }

  /// Counters and backend statistics restart; cache contents, prefetcher
  /// streams and hint countdowns are kept.
  void reset_stats() {
    for (auto& c : counters_) c = Counters{};
    for (auto& m : memory_) m->reset_stats();
  }

  void flush_caches() {
    for (auto& c : l1_) c.flush();
    for (auto& c : l2_) c.flush();
    for (auto& c : l3_) c.flush();
  }

 private:
  void private_hit(CoreId core, Addr line) {
    if (config_.l3_hint_interval == 0) return;
    if (--hint_countdown_[core] != 0) return;
    hint_countdown_[core] = config_.l3_hint_interval;
    l3_[config_.socket_of(core)].touch(line);
  }

  void prefetch(CoreId core, Addr miss_line, Cycles now) {
    std::vector<Addr> candidates;
    prefetcher_[core].on_miss(miss_line, candidates);
    const std::uint32_t socket = config_.socket_of(core);
    MemoryBackend& memory = *memory_[socket];
    Counters& ctr = counters_[core];
    for (const Addr line : candidates) {
      if (l3_[socket].contains(line)) continue;
      if (memory.saturated(now, 2 * config_.mem_latency, line)) {
        ++ctr.prefetch_dropped;
        continue;
      }
      memory.transfer_async(now, line, config_.l3.line_bytes);
      evict(socket, core,
            l3_[socket].access(line, static_cast<std::uint16_t>(core)), now);
      ++ctr.prefetch_issued;
      ctr.bytes_from_mem += config_.l3.line_bytes;
    }
  }

  void evict(std::uint32_t socket, CoreId core,
             const Cache::AccessOutcome& fill, Cycles now) {
    if (!fill.evicted) return;
    bool dirty = fill.evicted_dirty;
    for (std::uint32_t i = 0; i < config_.cores_per_socket; ++i) {
      if ((fill.evicted_sharers >> i & 1u) == 0) continue;
      const CoreId sharer = socket * config_.cores_per_socket + i;
      if (l1_[sharer].invalidate(fill.evicted_line)) dirty = true;
      if (l2_[sharer].invalidate(fill.evicted_line)) dirty = true;
    }
    if (!dirty) return;
    const auto bytes = static_cast<std::uint64_t>(
        config_.l3.line_bytes * config_.writeback_cost_factor);
    if (bytes != 0)
      memory_[socket]->transfer_async(now, fill.evicted_line, bytes);
    ++counters_[core].writebacks;
  }

  MachineConfig config_;
  std::vector<ReferenceCache> l1_;               // per core
  std::vector<ReferenceCache> l2_;               // per core
  std::vector<ReferencePrefetcher> prefetcher_;  // per core
  std::vector<ReferenceCache> l3_;               // per socket
  std::vector<std::unique_ptr<MemoryBackend>> memory_;  // per socket
  std::vector<Counters> counters_;                      // per core
  std::vector<std::uint32_t> hint_countdown_;           // per core
};

}  // namespace am::sim::reference
