#include "sim/prefetcher.hpp"

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
  // Two buckets per stream keeps buckets sparse in both indexes.
  const std::uint64_t buckets =
      std::bit_ceil(2 * static_cast<std::uint64_t>(config_.num_streams));
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  granule_shift_ = static_cast<unsigned>(std::countr_zero(std::bit_ceil(
      2 * static_cast<std::uint64_t>(config_.max_stride_lines))));
  words_ = (config_.num_streams + 63) / 64;
}

void StreamPrefetcher::materialize() {
  const std::size_t words = std::size_t{words_} << (64 - bucket_shift_);
  streams_.resize(config_.num_streams);
  next_index_.assign(words, 0);
  fresh_index_.assign(words, 0);
}

StreamPrefetcher::Word* StreamPrefetcher::bucket(std::vector<Word>& index,
                                                 Addr key) {
  // Fibonacci hashing: the top bits of a multiplicative hash.
  const auto b = (key * 0x9E3779B97F4A7C15ull) >> bucket_shift_;
  return &index[b * words_];
}

StreamPrefetcher::Word* StreamPrefetcher::bucket_of(const Stream& s) {
  if (s.stride == 0) return bucket(fresh_index_, s.last_line >> granule_shift_);
  const auto next = static_cast<std::int64_t>(s.last_line) + s.stride;
  if (next < 0) return nullptr;
  return bucket(next_index_, static_cast<Addr>(next));
}

void StreamPrefetcher::link(Slot i) {
  if (Word* bits = bucket_of(streams_[i])) bits[i / 64] |= Word{1} << (i % 64);
}

void StreamPrefetcher::unlink(Slot i) {
  if (Word* bits = bucket_of(streams_[i]))
    bits[i / 64] &= ~(Word{1} << (i % 64));
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
auto StreamPrefetcher::first_match(const Word* a, const Word* b,
                                   Match match) const -> Slot {
  for (Slot w = 0; w < words_; ++w)
    for (Word bits = a[w] | b[w]; bits != 0; bits &= bits - 1) {
      const Slot i = w * 64 + static_cast<Slot>(std::countr_zero(bits));
      if (match(streams_[i])) return i;
    }
  return kNone;
}

void StreamPrefetcher::on_miss(Addr line_addr, std::vector<Addr>& out) {
  if (!config_.enabled) return;
  if (streams_.empty()) materialize();  // the first miss

  // Pass 1: does this miss continue an existing stream?
  const Word* next = bucket(next_index_, line_addr);
  const Slot cont = first_match(next, next, [&](const Stream& s) {
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
  const std::uint64_t window = config_.max_stride_lines;
  const auto pairs = [&](const Stream& s) {
    const auto delta = static_cast<std::int64_t>(line_addr) -
                       static_cast<std::int64_t>(s.last_line);
    return delta != 0 &&
           static_cast<std::uint64_t>(std::llabs(delta)) <= window;
  };
  const Addr lo = line_addr >= window ? line_addr - window : 0;
  const Slot pair =
      first_match(bucket(fresh_index_, lo >> granule_shift_),
                  bucket(fresh_index_, (line_addr + window) >> granule_shift_),
                  pairs);
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
