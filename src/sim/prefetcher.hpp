#pragma once
// Per-core stream prefetcher. Detects constant-stride miss streams (in
// line-address space) and asks the memory system to pull upcoming lines
// into the cache ahead of demand. The paper's BWThr relies on exactly this
// mechanism: its constant prime stride is prefetch-friendly, which lets a
// single thread consume more memory bandwidth; CSThr's random pattern
// deliberately defeats it.
//
// Every L2 miss runs on_miss, and the interference agents' misses dominate
// the simulator's host time, so each of its three decisions is an indexed
// lookup rather than a scan of the stream table. An index hashes a key to
// a bucket, a bitmask over the slots (ceil(num_streams / 64) words):
// indexing a stream sets one bit, unindexing it clears that bit, and a
// lookup visits set bits in ascending order and stops at the first match.
// So when several streams match a miss the lowest slot wins, as in a
// front-to-back scan of the table, whatever the bucket layout.
//
//  * Continue: armed streams (stride != 0) are indexed by their predicted
//    next line, last_line + stride. A negative prediction can never match
//    a miss and is left unindexed.
//  * Pair: fresh streams (stride == 0, confidence 0) are indexed by their
//    last line's granule, a power of two >= 2 * max_stride_lines lines, so
//    every line within max_stride_lines of a miss lies in one of the two
//    granules around it; the lookup visits the OR of their two bitmasks.
//    Candidates are checked exactly against 0 < |delta| <= max_stride_lines.
//  * Allocate: valid slots always form a prefix of the table and every
//    touch is a distinct moment, so the victim is the first never-used
//    slot, else the head of an intrusive LRU list.
//
// The stream table and both indexes are allocated at the first on_miss:
// an engine builds a prefetcher for every core of the machine, and a core
// that never misses in its L2 never needs one.
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace am::sim {

struct PrefetcherConfig {
  /// Number of concurrent streams tracked. Intel's L2 streamer tracks 32;
  /// we default to 64 so a 44-buffer BWThr keeps all streams live.
  std::uint32_t num_streams = 64;
  /// Lines fetched ahead once a stream is confirmed.
  std::uint32_t degree = 4;
  /// Misses with the same stride required before prefetching starts.
  std::uint32_t confirm_threshold = 2;
  /// Largest tracked stride in lines. Hardware stream detectors only
  /// follow near-sequential patterns (hundreds of bytes); larger strides
  /// are left to software prefetching, which we do not model.
  std::uint32_t max_stride_lines = 8;
  /// Prefetches never cross this boundary (in lines): 4 KB pages of 64-byte
  /// lines. Mirrors real streamers and bounds mis-predicted pollution.
  std::uint32_t page_lines = 64;
  bool enabled = true;

  /// Throws std::invalid_argument for an empty stream table or a zero page
  /// size. MachineConfig::validate calls it when the prefetcher is enabled.
  void validate() const;
};

/// Tracks up to `num_streams` candidate miss streams (LRU-allocated) and
/// emits prefetch targets once a stream has repeated its stride
/// `confirm_threshold` times. Fully deterministic — no RNG, state advances
/// only through on_miss — so traces replay identically. The caller (the
/// memory system) owns issuing the returned addresses and charging their
/// bandwidth.
class StreamPrefetcher {
 public:
  /// Validates `config` when it is enabled.
  explicit StreamPrefetcher(PrefetcherConfig config);

  /// Observes a demand miss at `line_addr` (line-address space); appends
  /// up to `degree` prefetch candidates to `out` — which is not cleared —
  /// when the miss continues a confirmed stream. Candidates never cross
  /// the miss's `page_lines` boundary. No-op when config.enabled is false.
  void on_miss(Addr line_addr, std::vector<Addr>& out);

  std::uint64_t streams_confirmed() const { return confirmed_; }
  const PrefetcherConfig& config() const { return config_; }

 private:
  using Slot = std::uint32_t;
  using Word = std::uint64_t;
  static constexpr Slot kNone = ~Slot{0};

  struct Stream {
    Addr last_line = 0;
    std::int64_t stride = 0;  // 0 until the stream pairs (confidence 0)
    std::uint32_t confidence = 0;
    Slot lru_prev = kNone;    // towards the least recently used slot
    Slot lru_next = kNone;    // towards the most recently used slot
  };

  /// Allocates the stream table and both indexes (see the file comment).
  void materialize();
  /// The bitmask of the bucket `key` hashes to in `index`.
  Word* bucket(std::vector<Word>& index, Addr key);
  /// The bitmask indexing `s`, or nullptr when `s` is unindexed.
  Word* bucket_of(const Stream& s);
  void link(Slot i);
  void unlink(Slot i);
  /// Moves `i` to the most recently used end of the LRU list.
  void touch(Slot i);
  /// Lowest slot set in `a | b` that `match` accepts, or kNone.
  template <typename Match>
  Slot first_match(const Word* a, const Word* b, Match match) const;

  PrefetcherConfig config_;
  std::vector<Stream> streams_;    // slots [0, used_) are valid; empty
                                   // until the first on_miss
  std::vector<Word> next_index_;   // armed streams by predicted next line
  std::vector<Word> fresh_index_;  // fresh streams by last-line granule
  Slot words_ = 0;                 // bitmask words per bucket
  unsigned bucket_shift_ = 0;
  unsigned granule_shift_ = 0;
  Slot used_ = 0;
  Slot lru_head_ = kNone;
  Slot lru_tail_ = kNone;
  std::uint64_t confirmed_ = 0;
};

}  // namespace am::sim
