#pragma once
// Reference model of sim::StreamPrefetcher: the original array-of-structs
// implementation, whose on_miss scans every stream slot up to three times
// per miss. It is kept here, unchanged in behaviour, as the oracle for
// prefetcher_diff_test: the indexed production prefetcher must make exactly
// the same decisions, in the same order, on every miss sequence.
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/prefetcher.hpp"
#include "sim/types.hpp"

namespace am::sim::reference {

class ReferencePrefetcher {
 public:
  explicit ReferencePrefetcher(PrefetcherConfig config)
      : config_(config), streams_(config.num_streams) {}

  void on_miss(Addr line_addr, std::vector<Addr>& out) {
    if (!config_.enabled) return;
    ++tick_;

    // Pass 1: does this miss continue an existing stream?
    for (auto& s : streams_) {
      if (!s.valid || s.stride == 0) continue;
      const auto expected =
          static_cast<std::int64_t>(s.last_line) + s.stride;
      if (expected >= 0 && static_cast<Addr>(expected) == line_addr) {
        s.last_line = line_addr;
        s.lru = tick_;
        if (s.confidence < config_.confirm_threshold) {
          ++s.confidence;
          if (s.confidence == config_.confirm_threshold) ++confirmed_;
        }
        if (s.confidence >= config_.confirm_threshold) {
          const Addr page = line_addr / config_.page_lines;
          for (std::uint32_t k = 1; k <= config_.degree; ++k) {
            const auto target =
                static_cast<std::int64_t>(line_addr) + s.stride * k;
            // Stay within the miss's page, like hardware streamers.
            if (target >= 0 &&
                static_cast<Addr>(target) / config_.page_lines == page)
              out.push_back(static_cast<Addr>(target));
          }
        }
        return;
      }
    }

    // Pass 2: does it pair with a recent miss to form a new stride? We
    // match against each stream's last address; a plausible stride re-arms
    // it.
    for (auto& s : streams_) {
      if (!s.valid) continue;
      const auto delta = static_cast<std::int64_t>(line_addr) -
                         static_cast<std::int64_t>(s.last_line);
      if (delta != 0 && std::llabs(delta) <= config_.max_stride_lines &&
          s.confidence == 0) {
        s.stride = delta;
        s.last_line = line_addr;
        s.confidence = 1;
        s.lru = tick_;
        return;
      }
    }

    // Pass 3: allocate a fresh stream over the LRU slot.
    Stream* victim = &streams_[0];
    for (auto& s : streams_) {
      if (!s.valid) {
        victim = &s;
        break;
      }
      if (s.lru < victim->lru) victim = &s;
    }
    *victim = Stream{line_addr, 0, 0, tick_, true};
  }

  std::uint64_t streams_confirmed() const { return confirmed_; }

 private:
  struct Stream {
    Addr last_line = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  PrefetcherConfig config_;
  std::vector<Stream> streams_;
  std::uint64_t tick_ = 0;
  std::uint64_t confirmed_ = 0;
};

}  // namespace am::sim::reference
