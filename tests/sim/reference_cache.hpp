#pragma once
// Reference model of sim::Cache: the original array-of-structs
// implementation, one 24-byte Line (tag, stamp, sharers, owner, valid,
// dirty) per way and a full-set scan for every operation. It is kept here,
// unchanged in behaviour, as the oracle for cache_diff_test: the flat-tag
// production cache must report exactly the same outcomes, victims and
// dirty bits on every operation sequence.
//
// The reference has no line->slot table: the table is a host-speed
// shortcut and must not change any outcome, so the set scan is the oracle
// for both the production cache's probe and its own scan.
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/set_index.hpp"
#include "sim/types.hpp"

namespace am::sim::reference {

class ReferenceCache {
 public:
  explicit ReferenceCache(CacheConfig config) : config_(std::move(config)) {
    config_.validate();
    indexer_ = SetIndexer(config_.set_hash, config_.num_sets());
    lines_.resize(config_.num_lines());
  }

  Cache::AccessOutcome access(Addr line_addr, std::uint16_t owner,
                              std::uint32_t sharer_bit = 0,
                              bool is_store = false) {
    Cache::AccessOutcome out;
    const std::size_t base = set_base(line_addr);
    ++stamp_;
    std::size_t victim = base;
    std::uint64_t victim_stamp = UINT64_MAX;
    bool found_invalid = false;
    for (std::size_t i = base; i < base + config_.ways; ++i) {
      Line& line = lines_[i];
      if (line.valid && line.tag == line_addr) {
        line.stamp = stamp_;
        line.sharers |= sharer_bit;
        line.dirty |= is_store;
        out.hit = true;
        return out;
      }
      if (!line.valid) {
        if (!found_invalid) {
          victim = i;
          found_invalid = true;
        }
      } else if (!found_invalid && line.stamp < victim_stamp) {
        victim = i;
        victim_stamp = line.stamp;
      }
    }
    if (!found_invalid && config_.replacement == Replacement::kRandom)
      victim =
          base + static_cast<std::size_t>(victim_rng_.bounded(config_.ways));
    Line& line = lines_[victim];
    if (line.valid) {
      out.evicted = true;
      out.evicted_dirty = line.dirty;
      out.evicted_line = line.tag;
      out.evicted_sharers = line.sharers;
    }
    const std::uint64_t insert_stamp =
        stamp_ > config_.insert_age ? stamp_ - config_.insert_age : 0;
    line = Line{line_addr, insert_stamp, sharer_bit, owner, /*valid=*/true,
                /*dirty=*/is_store};
    return out;
  }

  bool contains(Addr line_addr) const {
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + config_.ways; ++i)
      if (lines_[i].valid && lines_[i].tag == line_addr) return true;
    return false;
  }

  void touch(Addr line_addr) {
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + config_.ways; ++i) {
      if (lines_[i].valid && lines_[i].tag == line_addr) {
        lines_[i].stamp = ++stamp_;
        return;
      }
    }
  }

  bool mark_dirty(Addr line_addr) {
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + config_.ways; ++i) {
      if (lines_[i].valid && lines_[i].tag == line_addr) {
        lines_[i].dirty = true;
        return true;
      }
    }
    return false;
  }

  bool invalidate(Addr line_addr) {
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + config_.ways; ++i) {
      Line& line = lines_[i];
      if (line.valid && line.tag == line_addr) {
        const bool dirty = line.dirty;
        line = Line{};
        return dirty;
      }
    }
    return false;
  }

  void flush() {
    for (auto& line : lines_) line = Line{};
  }

  std::uint64_t occupancy_lines(std::uint16_t owner) const {
    std::uint64_t count = 0;
    for (const auto& line : lines_)
      if (line.valid && line.owner == owner) ++count;
    return count;
  }

  std::uint64_t resident_lines() const {
    std::uint64_t count = 0;
    for (const auto& line : lines_)
      if (line.valid) ++count;
    return count;
  }

  /// Every resident line address, in slot order.
  std::vector<Addr> resident() const {
    std::vector<Addr> out;
    for (const auto& line : lines_)
      if (line.valid) out.push_back(line.tag);
    return out;
  }

 private:
  struct Line {
    Addr tag = 0;
    std::uint64_t stamp = 0;
    std::uint32_t sharers = 0;
    std::uint16_t owner = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::size_t set_base(Addr line_addr) const {
    return static_cast<std::size_t>(indexer_.index(line_addr) * config_.ways);
  }

  CacheConfig config_;
  Rng victim_rng_{0x51ed270b7a64e5c4ull};
  SetIndexer indexer_;
  std::uint64_t stamp_ = 0;
  std::vector<Line> lines_;
};

}  // namespace am::sim::reference
