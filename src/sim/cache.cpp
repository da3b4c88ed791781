#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace am::sim {

void CacheConfig::validate() const {
  if (size_bytes == 0 || line_bytes == 0 || ways == 0)
    throw std::invalid_argument("CacheConfig: zero field in " + name);
  if (size_bytes % line_bytes != 0)
    throw std::invalid_argument("CacheConfig: size not multiple of line in " +
                                name);
  if (num_lines() % ways != 0)
    throw std::invalid_argument("CacheConfig: lines not multiple of ways in " +
                                name);
  if (num_sets() == 0)
    throw std::invalid_argument("CacheConfig: zero sets in " + name);
  // The line->slot table holds 32-bit slots.
  if (num_lines() > UINT32_MAX)
    throw std::invalid_argument("CacheConfig: more than 2^32-1 lines in " +
                                name);
}

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  indexer_ = SetIndexer(config_.set_hash, config_.num_sets());
}

std::uint64_t Cache::table_entries(const CacheConfig& config) {
  return std::max<std::uint64_t>(64, std::bit_ceil(4 * config.num_lines()));
}

void Cache::materialize() {
  const std::uint64_t lines = config_.num_lines();
  tags_.assign(lines, kNoLine);
  stamps_.assign(lines, 0);
  meta_.assign(lines, Meta{});
  slot_of_.assign(table_entries(config_), 0);
  slot_mask_ = slot_of_.size() - 1;
  ways_ = config_.ways;
}

Cache::AccessOutcome Cache::access(Addr line_addr, std::uint16_t owner,
                                   std::uint32_t sharer_bit, bool is_store) {
  AccessOutcome out;
  if (ways_ == 0) materialize();  // the first fill: nothing can hit
  const std::size_t base = set_base(line_addr);
  ++stamp_;
  // Hit probe: tags only, early exit.
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == line_addr) {
      stamps_[i] = stamp_;
      Meta& meta = meta_[i];
      meta.sharers |= sharer_bit;
      meta.dirty |= is_store;
      out.hit = true;
      slot_of_[line_addr & slot_mask_] = static_cast<std::uint32_t>(i);
      return out;
    }
  }
  const std::size_t victim = base + victim_way(base);
  Meta& meta = meta_[victim];
  if (tags_[victim] != kNoLine) {
    out.evicted = true;
    out.evicted_dirty = meta.dirty;
    out.evicted_line = tags_[victim];
    out.evicted_sharers = meta.sharers;
  }
  // Inserted insert_age accesses in the past, clamped at clock 0; stored
  // + 1 like every stamp.
  const std::uint64_t clock = stamp_ - 1;
  const std::uint64_t insert_clock =
      clock > config_.insert_age ? clock - config_.insert_age : 0;
  tags_[victim] = line_addr;
  stamps_[victim] = insert_clock + 1;
  meta = Meta{sharer_bit, owner, /*dirty=*/is_store};
  // The victim's own entry, if it still names this slot, now fails the
  // tag check.
  slot_of_[line_addr & slot_mask_] = static_cast<std::uint32_t>(victim);
  return out;
}

std::uint32_t Cache::victim_way(std::size_t base) {
  // Branchless min over the set's stamps; strict `<` keeps the lowest way
  // on ties. Invalid ways hold stamp 0 and valid lines at least 1, so the
  // min is the first invalid way when there is one, else the LRU line.
  // LRU ties between valid lines are real: insert_age > 0 clamps early
  // fills to the same stamp and lands later fills on earlier hit stamps.
  const std::uint32_t ways = ways_;
  const std::uint64_t* stamps = &stamps_[base];
  std::uint32_t victim = 0;
  std::uint64_t oldest = stamps[0];
  for (std::uint32_t w = 1; w < ways; ++w) {
    const std::uint64_t stamp = stamps[w];
    const bool older = stamp < oldest;
    oldest = older ? stamp : oldest;
    victim = older ? w : victim;
  }
  // Only a full set draws from the stream, so the random policy's RNG
  // sequence depends on the same events as it always has.
  if (oldest != 0 && config_.replacement == Replacement::kRandom)
    return static_cast<std::uint32_t>(victim_rng_.bounded(ways));
  return victim;
}

bool Cache::invalidate(Addr line_addr) {
  const std::size_t i = find(line_addr);
  if (i == kAbsent) return false;
  tags_[i] = kNoLine;
  stamps_[i] = 0;
  return meta_[i].dirty;
}

void Cache::flush() {
  // An invalid way's meta_ entry is never read; fills overwrite it. The
  // line->slot table keeps its entries: each now fails the tag check. A
  // never-filled cache clears its one invalid way and stays unsized.
  std::fill(tags_.begin(), tags_.end(), kNoLine);
  std::fill(stamps_.begin(), stamps_.end(), 0);
}

std::uint64_t Cache::occupancy_lines(std::uint16_t owner) const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < tags_.size(); ++i)
    if (tags_[i] != kNoLine && meta_[i].owner == owner) ++count;
  return count;
}

std::uint64_t Cache::resident_lines() const {
  std::uint64_t count = 0;
  for (const Addr tag : tags_)
    if (tag != kNoLine) ++count;
  return count;
}

}  // namespace am::sim
