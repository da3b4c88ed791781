#include "sim/memory_system.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace am::sim {

MemorySystem::MemorySystem(MachineConfig config) : config_(std::move(config)) {
  config_.validate();
  line_shift_ = std::countr_zero(
      static_cast<std::uint64_t>(config_.l1.line_bytes));
  // The shared L3 takes the machine's set-index hash — zsim hashes
  // exactly the LLC.
  config_.l3.set_hash = config_.set_hash;

  const auto cores = config_.total_cores();
  const auto sockets = config_.total_sockets();
  cores_.reserve(cores);
  for (std::uint32_t c = 0; c < cores; ++c)
    cores_.push_back(Core{Cache(config_.l1), Cache(config_.l2),
                          StreamPrefetcher(config_.prefetcher), Counters{},
                          config_.l3_hint_interval, config_.socket_of(c),
                          1u << (c % config_.cores_per_socket)});
  sockets_.reserve(sockets);
  for (std::uint32_t s = 0; s < sockets; ++s)
    sockets_.push_back(Socket{Cache(config_.l3), make_memory_backend(config_)});
  for (std::uint32_t n = 0; n < config_.nodes; ++n)
    nic_.push_back(std::make_unique<BandwidthChannel>(
        config_.link_bytes_per_cycle(), /*latency=*/0));
  batch_window_.reserve(config_.max_outstanding_misses);
}

Addr MemorySystem::alloc(std::uint64_t bytes, std::uint64_t align) {
  if (align == 0 || (align & (align - 1)) != 0)
    throw std::invalid_argument("alloc: alignment must be a power of two");
  next_alloc_ = (next_alloc_ + align - 1) & ~(align - 1);
  const Addr base = next_alloc_;
  next_alloc_ += bytes;
  return base;
}

bool MemorySystem::back_invalidate(std::uint32_t socket, Addr line,
                                   std::uint32_t sharers) {
  const CoreId base = socket * config_.cores_per_socket;
  bool dirty = false;
  while (sharers != 0) {
    const int bit = std::countr_zero(sharers);
    sharers &= sharers - 1;
    const CoreId core = base + static_cast<CoreId>(bit);
    dirty |= cores_[core].l1.invalidate(line);
    dirty |= cores_[core].l2.invalidate(line);
  }
  return dirty;
}

void MemorySystem::handle_l3_eviction(std::uint32_t socket, Counters& ctr,
                                      const Cache::AccessOutcome& out,
                                      Cycles now) {
  if (!out.evicted) return;
  bool dirty = out.evicted_dirty;
  dirty |= back_invalidate(socket, out.evicted_line, out.evicted_sharers);
  if (dirty) {
    const auto wb_bytes = static_cast<std::uint64_t>(
        config_.l3.line_bytes * config_.writeback_cost_factor);
    if (wb_bytes > 0)
      sockets_[socket].backend->transfer_async(now, out.evicted_line, wb_bytes);
    ++ctr.writebacks;
  }
}

void MemorySystem::issue_prefetches(Core& core, CoreId core_id, Addr miss_line,
                                    Cycles now) {
  prefetch_buf_.clear();
  core.prefetcher.on_miss(miss_line, prefetch_buf_);
  if (prefetch_buf_.empty()) return;
  Socket& socket = sockets_[core.socket];
  Cache& l3 = socket.l3;
  MemoryBackend& bus = *socket.backend;
  Counters& ctr = core.counters;
  for (Addr line : prefetch_buf_) {
    if (l3.contains(line)) continue;
    // Prefetches yield to demand traffic: drop them once the bus queue is
    // deeper than roughly two DRAM latencies.
    if (bus.saturated(now, 2 * config_.mem_latency, line)) {
      ++ctr.prefetch_dropped;
      continue;
    }
    bus.transfer_async(now, line, config_.l3.line_bytes);
    const auto out =
        l3.access(line, static_cast<std::uint16_t>(core_id), 0, false);
    handle_l3_eviction(core.socket, ctr, out, now);
    ++ctr.prefetch_issued;
    ctr.bytes_from_mem += config_.l3.line_bytes;
  }
}

AccessResult MemorySystem::access_slow(CoreId core_id, Addr line, bool is_store,
                                       Cycles now) {
  Core& core = cores_[core_id];
  Counters& ctr = core.counters;
  const auto owner = static_cast<std::uint16_t>(core_id);
  if (is_store)
    ++ctr.stores;
  else
    ++ctr.loads;
  ++ctr.l1_filter_fallthroughs;

  // L1. Cache::access is probe-and-insert: a miss here already fills the
  // line, so only the victim needs handling. Private victims generate no
  // bus traffic, but a dirty victim's data must survive in the level below
  // so its eventual L3 eviction writes back to memory. The L2 does not
  // include the L1, so the victim may have left the L2; then its dirty bit
  // goes to the L3 copy, which inclusion keeps resident.
  const auto l1_out = core.l1.access(line, owner, 0, is_store);
  if (l1_out.evicted_dirty && !core.l2.mark_dirty(l1_out.evicted_line))
    (void)sockets_[core.socket].l3.mark_dirty(l1_out.evicted_line);
  if (l1_out.hit) {
    ++ctr.l1_hits;
    hint_l3(core, line);
    return {now + config_.l1_latency, Level::kL1};
  }

  // L2 probe: the L1-miss/L2-hit band dominates capacity sweeps, and the
  // L2's line->slot table resolves it with one compare while applying
  // exactly the mutations the full walk's hit path would (LRU stamp,
  // sharer OR, dirty OR — see Cache::try_fast_hit). A hit never evicts,
  // so there is no victim to hand down.
  if (core.l2.try_fast_hit(line, 0, is_store)) {
    ++ctr.l2_hits;
    ++ctr.l2_filter_hits;
    hint_l3(core, line);
    return {now + config_.l2_latency, Level::kL2};
  }
  ++ctr.l2_filter_fallthroughs;

  // L2.
  const auto l2_out = core.l2.access(line, owner, 0, is_store);
  if (l2_out.evicted_dirty)
    (void)sockets_[core.socket].l3.mark_dirty(l2_out.evicted_line);
  if (l2_out.hit) {
    ++ctr.l2_hits;
    hint_l3(core, line);
    return {now + config_.l2_latency, Level::kL2};
  }

  // The prefetcher trains on L2 misses, like Intel's L2 streamer.
  issue_prefetches(core, core_id, line, now);

  // L3 (inclusive, shared per socket). The table probe comes after the
  // prefetches, which may have evicted the line; a hit never evicts, so
  // there is no eviction to handle on it.
  Socket& socket = sockets_[core.socket];
  if (socket.l3.try_fast_hit(line, core.sharer_bit, is_store)) {
    ++ctr.l3_hits;
    return {now + config_.l3_latency, Level::kL3};
  }
  const auto out = socket.l3.access(line, owner, core.sharer_bit, is_store);
  handle_l3_eviction(core.socket, ctr, out, now);
  if (out.hit) {
    ++ctr.l3_hits;
    return {now + config_.l3_latency, Level::kL3};
  }

  // DRAM: queue on the socket's memory bus, then fill all levels.
  const Cycles done =
      socket.backend->transfer(now, line, config_.l3.line_bytes);
  ++ctr.mem_accesses;
  ctr.bytes_from_mem += config_.l3.line_bytes;
  return {done, Level::kMemory};
}

Cycles MemorySystem::access_batch(CoreId core, std::span<const Addr> addrs,
                                  AccessKind kind, Cycles now) {
  // Sliding window of outstanding miss completions (line-fill buffers).
  // Member buffer: batches are issued per agent step, so a per-call
  // vector would put an allocation on the engine's hottest loop.
  std::vector<Cycles>& window = batch_window_;
  window.clear();
  Cycles last = now;
  Cache& l1 = cores_[core].l1;
  const std::size_t n = addrs.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Software pipelining: pull the NEXT access's L1 table entry and set
    // tags into the host cache while this access retires through the
    // window bookkeeping below. Host-side hint only — simulated state,
    // counters and completion times are byte-identical with it removed.
    if (i + 1 < n) l1.prefetch_set(addrs[i + 1] >> line_shift_);
    Cycles issue = now;
    if (window.size() == config_.max_outstanding_misses) {
      const auto min_it = std::min_element(window.begin(), window.end());
      issue = std::max(now, *min_it);
      window.erase(min_it);
    }
    const AccessResult res = access(core, addrs[i], kind, issue);
    if (res.level == Level::kMemory) window.push_back(res.complete);
    last = std::max(last, res.complete);
  }
  return last;
}

Cycles MemorySystem::link_transfer(std::uint32_t node_from,
                                   std::uint32_t node_to, std::uint64_t bytes,
                                   Cycles now) {
  if (node_from == node_to)
    throw std::invalid_argument("link_transfer within one node");
  const Cycles sent = nic_[node_from]->transfer(now, bytes);
  const Cycles received = nic_[node_to]->transfer(now, bytes);
  return std::max(sent, received) + config_.link_latency;
}

std::uint64_t MemorySystem::l3_occupancy_bytes(CoreId core) const {
  const Cache& l3 = sockets_[cores_[core].socket].l3;
  return l3.occupancy_lines(static_cast<std::uint16_t>(core)) *
         config_.l3.line_bytes;
}

void MemorySystem::reset_stats() {
  for (Core& core : cores_) core.counters = Counters{};
  for (Socket& socket : sockets_) socket.backend->reset_stats();
  for (auto& ch : nic_) ch->reset_stats();
}

void MemorySystem::flush_caches() {
  for (Core& core : cores_) {
    core.l1.flush();
    core.l2.flush();
  }
  for (Socket& socket : sockets_) socket.l3.flush();
}

}  // namespace am::sim
