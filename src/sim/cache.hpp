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
//            valid line, 0 for an invalid way, so the lowest stamp in the
//            set names the first invalid way or else the LRU line;
//   meta_    one 8-byte {sharers, owner, dirty} record per way.
// That is 24 B per line, the size of the array-of-structs layout it
// replaced (kept as the test oracle in tests/sim/reference_cache.hpp).
//
// access() walks the set once, way by way: it stops at the tag match,
// and on its way keeps the lowest stamp seen, strict `<` keeping the
// lowest way on ties. A miss has then read every way and holds its
// victim without a second pass. access() is defined in this header so
// the hierarchy walk in MemorySystem inlines the fill of every level.
//
// Beside them sits one line->slot table of table_entries(config) 4-byte
// entries, indexed by the low bits of the line address and written on
// every hit and fill. An entry is only a guess: it is trusted when
// `tags_[entry] == line`, and a line is resident at most once, so a
// stale entry (the line left, moved to another way, or lost its entry to
// a colliding line) costs only the fallback set scan. The table holds no
// simulated state: hits, victims and dirty bits never depend on it. It
// has four entries per line (at least 64), so the few hot lines of a
// one-set L1 or of an L2 set rarely share an entry.
//
// All four arrays take their size at the first fill. An engine builds the
// caches of every core and socket of the machine, and a run's agents
// touch only a few of them. Until then the cache is one invalid way named
// by a one-entry table, with a scan width (ways_) of 0: every lookup
// misses without reading past index 0, and the occupancy counts are 0.
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

  /// Entries of the line->slot table of a cache with this geometry, once
  /// it is filled: max(64, bit_ceil(4 * num_lines)).
  static std::uint64_t table_entries(const CacheConfig& config);

  /// The tag of an invalid way. Line addresses are byte addresses >> line
  /// shift, so it is unreachable.
  static constexpr Addr kNoLine = ~Addr{0};

  struct AccessOutcome {
    bool hit = false;
    bool evicted = false;
    bool evicted_dirty = false;
    Addr evicted_line = 0;          // line index (addr / line_bytes)
    std::uint32_t evicted_sharers = 0;
  };

  /// Looks up a line; on miss, inserts it and reports the victim (if any).
  /// `owner` tags the inserting agent (occupancy accounting); `sharer_bit`
  /// is OR-ed into the line's sharer mask (used by the L3 to know which
  /// private caches may hold copies). The lookup scans the set; it does
  /// not consult the line->slot table, only writes it. The first call
  /// sizes the arrays (see the file comment).
  AccessOutcome access(Addr line_addr, std::uint16_t owner,
                       std::uint32_t sharer_bit = 0, bool is_store = false) {
    AccessOutcome out;
    if (ways_ == 0) materialize();  // the first fill: nothing can hit
    const std::size_t base = set_base(line_addr);
    const Addr* tags = &tags_[base];
    const std::uint64_t* stamps = &stamps_[base];
    const std::uint32_t ways = ways_;
    ++stamp_;
    // LRU ties between valid lines are real: insert_age > 0 clamps early
    // fills to the same stamp and lands later fills on earlier hit stamps.
    std::uint32_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (tags[w] == line_addr) {
        const std::size_t i = base + w;
        stamps_[i] = stamp_;
        Meta& meta = meta_[i];
        meta.sharers |= sharer_bit;
        meta.dirty |= is_store;
        out.hit = true;
        slot_of_[line_addr & slot_mask_] = static_cast<std::uint32_t>(i);
        return out;
      }
      const std::uint64_t stamp = stamps[w];
      const bool older = stamp < oldest;
      oldest = older ? stamp : oldest;
      victim = older ? w : victim;
    }
    // Only a full set draws from the stream, so the random policy's RNG
    // sequence depends on the same events as it always has.
    if (oldest != 0 && config_.replacement == Replacement::kRandom)
      victim = static_cast<std::uint32_t>(victim_rng_.bounded(ways));
    const std::size_t i = base + victim;
    Meta& meta = meta_[i];
    if (tags_[i] != kNoLine) {
      out.evicted = true;
      out.evicted_dirty = meta.dirty;
      out.evicted_line = tags_[i];
      out.evicted_sharers = meta.sharers;
    }
    // Inserted insert_age accesses in the past, clamped at clock 0; stored
    // + 1 like every stamp.
    const std::uint64_t clock = stamp_ - 1;
    const std::uint64_t insert_clock =
        clock > config_.insert_age ? clock - config_.insert_age : 0;
    tags_[i] = line_addr;
    stamps_[i] = insert_clock + 1;
    meta = Meta{sharer_bit, owner, /*dirty=*/is_store};
    // The victim's own entry, if it still names this slot, now fails the
    // tag check.
    slot_of_[line_addr & slot_mask_] = static_cast<std::uint32_t>(i);
    return out;
  }

  /// Fast path in front of access(): when the line->slot table's entry
  /// for `line_addr` names the line's way, applies exactly the state
  /// updates a hit in access() would (LRU stamp advance, sharer-mask OR,
  /// dirty-bit OR), so both paths are bit-identical, and returns true.
  /// Returns false when the entry is stale; the caller must then fall
  /// through to access(), which scans the set (and rewrites the entry on a
  /// hit). Hits never evict, so there is no outcome to report.
  bool try_fast_hit(Addr line_addr, std::uint32_t sharer_bit, bool is_store) {
    const std::uint32_t i = slot_of_[line_addr & slot_mask_];
    if (tags_[i] != line_addr) return false;
    stamps_[i] = ++stamp_;
    Meta& meta = meta_[i];
    meta.sharers |= sharer_bit;
    meta.dirty |= is_store;
    return true;
  }

  /// Host-side prefetch of the line's table entry and its set's tags for
  /// an access about to be issued. Pure software-pipelining hint for
  /// MemorySystem::access_batch — touches no simulated state, so results
  /// cannot depend on it. Before the first fill both addresses are index
  /// 0 of one-entry arrays.
  void prefetch_set(Addr line_addr) const {
    __builtin_prefetch(&slot_of_[line_addr & slot_mask_]);
    __builtin_prefetch(&tags_[set_base(line_addr)]);
  }

  /// True if the line is present (no replacement state update).
  bool contains(Addr line_addr) const { return find(line_addr) != kAbsent; }

  /// Refreshes the LRU stamp of a resident line; no-op when absent.
  void touch(Addr line_addr) {
    const std::size_t i = find(line_addr);
    if (i != kAbsent) stamps_[i] = ++stamp_;
  }

  /// Sets the dirty bit of a resident line without touching replacement
  /// state (used when a private cache writes back into the level below).
  /// Returns false when the line is absent.
  bool mark_dirty(Addr line_addr) {
    const std::size_t i = find(line_addr);
    if (i == kAbsent) return false;
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

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// The first slot of the line's set; 0 before the first fill.
  std::size_t set_base(Addr line_addr) const {
    return static_cast<std::size_t>(indexer_.index(line_addr) * ways_);
  }
  /// The slot holding `line_addr`, or kAbsent: the table's entry when it
  /// names the line, else a scan of the set.
  std::size_t find(Addr line_addr) const {
    const std::size_t hint = slot_of_[line_addr & slot_mask_];
    if (tags_[hint] == line_addr) return hint;
    const std::size_t base = set_base(line_addr);
    for (std::size_t i = base; i < base + ways_; ++i)
      if (tags_[i] == line_addr) return i;
    return kAbsent;
  }
  /// Gives the arrays their full size (see the file comment).
  void materialize();

  CacheConfig config_;
  Rng victim_rng_{0x51ed270b7a64e5c4ull};  // deterministic random policy
  SetIndexer indexer_;
  // Per-cache logical clock for LRU, + 1: a valid line's stamp is >= 1,
  // leaving 0 for invalid ways.
  std::uint64_t stamp_ = 1;
  // Until the first fill: one invalid way, a one-entry table naming it,
  // and nothing to scan.
  std::uint32_t ways_ = 0;                      // config_.ways once filled
  std::vector<Addr> tags_ = {kNoLine};          // kNoLine = invalid way
  std::vector<std::uint64_t> stamps_ = {0};     // 0 = invalid way
  std::vector<Meta> meta_ = {Meta{}};
  // Line->slot table, validated against tags_ on every read.
  std::vector<std::uint32_t> slot_of_ = {0};
  Addr slot_mask_ = 0;  // slot_of_.size() - 1
};

}  // namespace am::sim
