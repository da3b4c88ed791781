#pragma once
// Set-associative cache model with per-line LRU stamps, dirty bits, owner
// tags (for occupancy accounting in validation tests) and sharer masks
// (for inclusive-L3 back-invalidation).
//
// Storage is structure-of-arrays, ways contiguous per set, slot
// `set * ways + way` in every array:
//   tags_    one 8-byte line address per way; an invalid way holds
//            kNoLine, so a lookup compares tags only (a 20-way set is
//            160 B of tags);
//   stamps_  one 8-byte LRU stamp per way: the logical clock + 1 for a
//            valid line, 0 for an invalid way, so one branchless min over
//            the set finds the first invalid way or else the LRU line;
//   meta_    one 8-byte {sharers, owner, dirty} record per way.
// That is 24 B per line, the size of the array-of-structs layout it
// replaced (kept as the test oracle in tests/sim/reference_cache.hpp).
//
// Precondition: no line address passed to any member may equal kNoLine
// (~0). MachineConfig::validate requires line_bytes >= 2, so every line
// address MemorySystem derives (byte address >> line shift) is below 2^63.
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/set_index.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Victim selection policy.
enum class Replacement : std::uint8_t {
  kLru,     // strict least-recently-used (per-line stamps)
  kRandom,  // uniform random victim (deterministic per-cache stream);
            // closer to the steady state the paper's Eq. 2-3 derivation
            // assumes, and to how aggressively real pseudo-LRU L3s evict
            // hot lines under churn
};

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
  std::string name;
  /// Optional thrash resistance (SRRIP-style): newly inserted lines enter
  /// with a stamp this many accesses in the past, so one-touch streaming
  /// data is evicted before recently re-used lines. 0 (default, used by
  /// the Xeon20MB presets) = plain MRU insertion, which reproduces the
  /// paper's observation that 3+ BWThrs start stealing cache capacity;
  /// see bench/abl_insertion for the policy tradeoff.
  std::uint64_t insert_age = 0;
  Replacement replacement = Replacement::kLru;
  /// Enables the filter fast path (see Cache::try_fast_hit): a flat
  /// one-entry-per-set MRU tag array resolving repeat hits with a single
  /// compare, zsim-filter-cache style. Pure host-speed knob — simulated
  /// state and every outcome stay bit-identical (see
  /// tests/sim/filter_identity_test.cpp); excluded from
  /// measure::machine_fingerprint so result-store keys never depend on it.
  bool filter = false;
  /// Set-index function (see sim/set_index.hpp). kMask keeps the
  /// historical placement (low bits / exact modulo); kH3 hashes the line
  /// address and therefore changes simulated results — MachineConfig
  /// routes it to the shared L3 and fingerprints it.
  SetHash set_hash = SetHash::kMask;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }
  /// Throws std::invalid_argument when geometry is inconsistent.
  void validate() const;
};

class Cache {
 public:
  explicit Cache(CacheConfig config);

  /// The tag of an invalid way (and of an empty filter slot). Line
  /// addresses are byte addresses >> line shift, so it is unreachable.
  static constexpr Addr kNoLine = ~Addr{0};

  struct AccessOutcome {
    bool hit = false;
    bool evicted = false;
    bool evicted_dirty = false;
    Addr evicted_line = 0;          // line index (addr / line_bytes)
    std::uint32_t evicted_sharers = 0;
    /// Slot (set * ways + way) where the accessed line now lives: the hit
    /// way, or the way the fill replaced. Callers keep it as a hint for
    /// mark_dirty (see MemorySystem).
    std::uint32_t slot = 0;
  };

  /// Looks up a line; on miss, inserts it and reports the victim (if any).
  /// `owner` tags the inserting agent (occupancy accounting); `sharer_bit`
  /// is OR-ed into the line's sharer mask (used by the L3 to know which
  /// private caches may hold copies).
  AccessOutcome access(Addr line_addr, std::uint16_t owner,
                       std::uint32_t sharer_bit = 0, bool is_store = false);

  /// Filter fast path: when `config().filter` is set, resolves an access
  /// that hits the set's most-recently-accessed line with one tag compare,
  /// applying exactly the state updates a hit in access() would (LRU stamp
  /// advance, sharer-mask OR, dirty-bit OR) so both paths are
  /// bit-identical, and stores the line's slot in `*slot` when given.
  /// Returns false when the filter is disabled or the MRU line does not
  /// match; the caller must then fall through to access(), which refreshes
  /// the filter. Hits never evict, so there is no outcome to report.
  bool try_fast_hit(Addr line_addr, std::uint32_t sharer_bit, bool is_store,
                    std::uint32_t* slot = nullptr) {
    if (filter_.empty()) return false;
    const FilterSlot entry = filter_[indexer_.index(line_addr)];
    if (entry.tag != line_addr) return false;
    stamps_[entry.line_index] = ++stamp_;
    Meta& meta = meta_[entry.line_index];
    meta.sharers |= sharer_bit;
    meta.dirty |= is_store;
    if (slot != nullptr) *slot = entry.line_index;
    return true;
  }

  /// True when this cache was built with the filter fast path enabled.
  bool filter_enabled() const { return !filter_.empty(); }

  /// Host-side prefetch of the set's tags (and filter slot when enabled)
  /// for an access about to be issued. Pure software-pipelining hint for
  /// MemorySystem::access_batch — touches no simulated state, so results
  /// cannot depend on it.
  void prefetch_set(Addr line_addr) const {
    const std::uint64_t set = indexer_.index(line_addr);
    __builtin_prefetch(&tags_[set * config_.ways]);
    if (!filter_.empty()) __builtin_prefetch(&filter_[set]);
  }

  /// True if the line is present (no replacement state update).
  bool contains(Addr line_addr) const { return find(line_addr) != kAbsent; }

  /// Refreshes the LRU stamp of a resident line; no-op when absent.
  void touch(Addr line_addr) {
    const std::size_t i = find(line_addr);
    if (i != kAbsent) stamps_[i] = ++stamp_;
  }

  /// Sets the dirty bit of a resident line without touching replacement
  /// state (used when a private cache writes back into the inclusive L3).
  /// Returns false when the line is absent. `hint` is the slot to probe
  /// first, typically an earlier AccessOutcome::slot for this line; a
  /// stale or wrong hint only costs the set scan, because a line is
  /// resident at most once per cache.
  bool mark_dirty(Addr line_addr, std::uint32_t hint = 0) {
    std::size_t i = hint;
    if (i >= tags_.size() || tags_[i] != line_addr) {
      i = find(line_addr);
      if (i == kAbsent) return false;
    }
    meta_[i].dirty = true;
    return true;
  }

  /// Removes the line if present; returns true if it was present and dirty.
  bool invalidate(Addr line_addr);

  void flush();

  /// Number of resident lines tagged with `owner`. O(num_lines): intended
  /// for tests and periodic metrics, not per-access use.
  std::uint64_t occupancy_lines(std::uint16_t owner) const;
  /// Total resident (valid) lines.
  std::uint64_t resident_lines() const;

  const CacheConfig& config() const { return config_; }

 private:
  /// Per-way state beside the tag and the stamp.
  struct Meta {
    std::uint32_t sharers = 0;
    std::uint16_t owner = 0;
    bool dirty = false;
  };
  static_assert(sizeof(Meta) == 8);

  /// One filter entry per set: the set's most-recently-accessed line and
  /// its slot. `kNoLine` marks an empty entry.
  struct FilterSlot {
    Addr tag = kNoLine;
    std::uint32_t line_index = 0;
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t set_base(Addr line_addr) const {
    return static_cast<std::size_t>(indexer_.index(line_addr) * config_.ways);
  }
  /// The slot holding `line_addr`, or kAbsent.
  std::size_t find(Addr line_addr) const {
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + config_.ways; ++i)
      if (tags_[i] == line_addr) return i;
    return kAbsent;
  }
  /// The way a miss in the set at `base` fills: the first invalid way,
  /// else the replacement policy's victim.
  std::uint32_t victim_way(std::size_t base);
  /// Points the set's filter slot at `index` (no-op when disabled).
  void filter_update(Addr line_addr, std::size_t index) {
    if (filter_.empty()) return;
    filter_[indexer_.index(line_addr)] = {line_addr,
                                          static_cast<std::uint32_t>(index)};
  }
  /// Clears the set's filter slot if it names `line_addr` (invalidation).
  void filter_drop(Addr line_addr) {
    if (filter_.empty()) return;
    const std::uint64_t set = indexer_.index(line_addr);
    if (filter_[set].tag == line_addr) filter_[set] = FilterSlot{};
  }

  CacheConfig config_;
  Rng victim_rng_{0x51ed270b7a64e5c4ull};  // deterministic random policy
  SetIndexer indexer_;
  // Per-cache logical clock for LRU, + 1: a valid line's stamp is >= 1,
  // leaving 0 for invalid ways.
  std::uint64_t stamp_ = 1;
  std::vector<Addr> tags_;             // kNoLine = invalid way
  std::vector<std::uint64_t> stamps_;  // 0 = invalid way
  std::vector<Meta> meta_;
  std::vector<FilterSlot> filter_;  // one per set; empty = filter disabled
};

}  // namespace am::sim
