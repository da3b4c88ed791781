#include "sim/prefetcher.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace am::sim {

void PrefetcherConfig::validate() const {
  if (num_streams == 0)
    throw std::invalid_argument("PrefetcherConfig: num_streams == 0");
  if (page_lines == 0)
    throw std::invalid_argument("PrefetcherConfig: page_lines == 0");
}

StreamPrefetcher::StreamPrefetcher(PrefetcherConfig config) : config_(config) {
  if (!config_.enabled) return;
  config_.validate();
  // Two buckets per stream keeps chains short in both indexes.
  const std::uint64_t buckets =
      std::bit_ceil(2 * static_cast<std::uint64_t>(config_.num_streams));
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  granule_shift_ = static_cast<unsigned>(std::countr_zero(std::bit_ceil(
      2 * static_cast<std::uint64_t>(config_.max_stride_lines))));
}

void StreamPrefetcher::materialize() {
  const std::uint64_t buckets = std::uint64_t{1} << (64 - bucket_shift_);
  streams_.resize(config_.num_streams);
  next_heads_.assign(buckets, kNone);
  fresh_heads_.assign(buckets, kNone);
}

StreamPrefetcher::Slot StreamPrefetcher::bucket(Addr key) const {
  // Fibonacci hashing: the top bits of a multiplicative hash.
  return static_cast<Slot>((key * 0x9E3779B97F4A7C15ull) >> bucket_shift_);
}

StreamPrefetcher::Slot* StreamPrefetcher::chain_of(const Stream& s) {
  if (s.stride == 0)
    return &fresh_heads_[bucket(s.last_line >> granule_shift_)];
  const auto next = static_cast<std::int64_t>(s.last_line) + s.stride;
  if (next < 0) return nullptr;
  return &next_heads_[bucket(static_cast<Addr>(next))];
}

void StreamPrefetcher::link(Slot i) {
  Slot* head = chain_of(streams_[i]);
  if (head == nullptr) return;
  streams_[i].chain_next = *head;
  *head = i;
}

void StreamPrefetcher::unlink(Slot i) {
  Slot* at = chain_of(streams_[i]);
  if (at == nullptr) return;
  while (*at != i) at = &streams_[*at].chain_next;
  *at = streams_[i].chain_next;
}

void StreamPrefetcher::touch(Slot i) {
  if (lru_tail_ == i) return;
  Stream& s = streams_[i];
  // Detach (a just-allocated slot is not on the list yet)...
  if (s.lru_prev != kNone) {
    streams_[s.lru_prev].lru_next = s.lru_next;
  } else if (lru_head_ == i) {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNone) streams_[s.lru_next].lru_prev = s.lru_prev;
  // ...and append at the most recently used end.
  s.lru_prev = lru_tail_;
  s.lru_next = kNone;
  if (lru_tail_ != kNone) {
    streams_[lru_tail_].lru_next = i;
  } else {
    lru_head_ = i;
  }
  lru_tail_ = i;
}

template <typename Match>
StreamPrefetcher::Slot StreamPrefetcher::lowest_match(
    const std::vector<Slot>& heads, Slot b, Match match) const {
  Slot best = kNone;
  for (Slot i = heads[b]; i != kNone; i = streams_[i].chain_next)
    if (i < best && match(streams_[i])) best = i;
  return best;
}

void StreamPrefetcher::on_miss(Addr line_addr, std::vector<Addr>& out) {
  if (!config_.enabled) return;
  if (streams_.empty()) materialize();  // the first miss

  // Pass 1: does this miss continue an existing stream?
  const Slot cont =
      lowest_match(next_heads_, bucket(line_addr), [&](const Stream& s) {
        return static_cast<Addr>(static_cast<std::int64_t>(s.last_line) +
                                 s.stride) == line_addr;
      });
  if (cont != kNone) {
    Stream& s = streams_[cont];
    unlink(cont);
    s.last_line = line_addr;
    link(cont);
    touch(cont);
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

  // Pass 2: does it pair with a recent miss to form a new stride? We match
  // against each fresh stream's last address; a plausible stride arms it.
  // Lines within max_stride_lines of the miss span at most two granules.
  const std::uint64_t window = config_.max_stride_lines;
  const auto pairs = [&](const Stream& s) {
    const auto delta = static_cast<std::int64_t>(line_addr) -
                       static_cast<std::int64_t>(s.last_line);
    return delta != 0 &&
           static_cast<std::uint64_t>(std::llabs(delta)) <= window;
  };
  const Addr lo = line_addr >= window ? line_addr - window : 0;
  const Slot b_lo = bucket(lo >> granule_shift_);
  const Slot b_hi = bucket((line_addr + window) >> granule_shift_);
  Slot pair = lowest_match(fresh_heads_, b_lo, pairs);
  if (b_hi != b_lo)
    pair = std::min(pair, lowest_match(fresh_heads_, b_hi, pairs));
  if (pair != kNone) {
    Stream& s = streams_[pair];
    unlink(pair);
    s.stride = static_cast<std::int64_t>(line_addr) -
               static_cast<std::int64_t>(s.last_line);
    s.last_line = line_addr;
    s.confidence = 1;
    link(pair);
    touch(pair);
    return;
  }

  // Pass 3: allocate a fresh stream over the first unused slot, else the
  // least recently used one.
  Slot victim;
  if (used_ < streams_.size()) {
    victim = used_++;
  } else {
    victim = lru_head_;
    unlink(victim);
  }
  Stream& s = streams_[victim];
  s.last_line = line_addr;
  s.stride = 0;
  s.confidence = 0;
  link(victim);
  touch(victim);
}

}  // namespace am::sim
