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
