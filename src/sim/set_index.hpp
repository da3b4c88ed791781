#pragma once
// Pluggable set-index computation for sim::Cache (round 2 of the engine
// hot-path work, see docs/PERFORMANCE.md). Every probe, fill, filter
// lookup and invalidation maps a line address to a set through one of
// these indexers:
//
//   SetHash::kMask  Physical low-bit indexing, exactly what the model
//                   always did: `addr & (sets-1)` for power-of-two set
//                   counts, `addr % sets` otherwise. The non-pow2 path
//                   is strength-reduced to a precomputed magic-number
//                   reciprocal (Granlund-Montgomery/Hacker's Delight
//                   style, the transform compilers apply to division by
//                   a constant) that is exact for every 64-bit address —
//                   bit-identical to `%` by the property test in
//                   tests/sim/set_index_test.cpp.
//   SetHash::kH3    A zsim-style H3 universal hash (one fixed random
//                   row per output bit; output bit i is the parity of
//                   `addr & row[i]`), spreading pathological strides
//                   across sets the way hashed LLCs do. Unlike kMask
//                   this CHANGES placement and therefore simulated
//                   results, so MachineConfig::set_hash keys
//                   measure::machine_fingerprint when it deviates from
//                   the default.
#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Set-index function selector (CacheConfig::set_hash,
/// MachineConfig::set_hash).
enum class SetHash : std::uint8_t {
  kMask = 0,  // low-bit mask (pow2) / exact reciprocal modulo (non-pow2)
  kH3 = 1,    // H3 family hash over the line address
};

/// Human name ("mask" / "h3").
const char* set_hash_name(SetHash hash);

/// The H3 rows: one 64-bit mask per output bit, drawn from one fixed seed
/// because the H3 family is part of the simulated machine's definition —
/// every cache, run and process must place lines identically. An indexer
/// of width w uses the first w rows, a prefix of the same stream, so this
/// one table, built at compile time, serves every width.
inline constexpr std::array<std::uint64_t, 64> kH3Rows = [] {
  std::array<std::uint64_t, 64> rows{};
  Rng rng(0x48334861736852ull);  // "H3HashR"
  for (auto& row : rows) row = rng();
  return rows;
}();

class SetIndexer {
 public:
  /// Trivial indexer (one set) so Cache members can be default-built
  /// before configuration is validated.
  SetIndexer() : SetIndexer(SetHash::kMask, 1) {}
  /// Throws std::invalid_argument when num_sets == 0.
  SetIndexer(SetHash hash, std::uint64_t num_sets);

  std::uint64_t num_sets() const { return num_sets_; }

  /// The set this line address maps to, in [0, num_sets()).
  std::uint64_t index(Addr line_addr) const {
    switch (mode_) {
      case Mode::kPow2Mask:
        return line_addr & mask_;
      case Mode::kMagicMod:
        return magic_mod(line_addr);
      case Mode::kH3Pow2:
        return h3(line_addr);
      default:  // Mode::kH3Mod
        return magic_mod(h3(line_addr));
    }
  }

  /// `x % num_sets()` through the precomputed reciprocal — one widening
  /// multiply plus shifts instead of a hardware divide. Exposed so the
  /// exact-quotient property test can drive it directly on every
  /// geometry, power of two or not.
  std::uint64_t magic_mod(std::uint64_t x) const {
    if (mask_ != 0 || num_sets_ == 1) return x & mask_;
    std::uint64_t q = mul_hi(x, magic_);
    // Hacker's Delight 10-9: when the magic needs 65 bits, the quotient
    // is (q + x) >> shift — computed overflow-free as the average of q
    // and x (same parity, so exact) shifted one less.
    if (magic_add_)
      q = (q + ((x - q) >> 1)) >> (magic_shift_ - 1);
    else
      q >>= magic_shift_;
    return x - q * num_sets_;
  }

 private:
  enum class Mode : std::uint8_t { kPow2Mask, kMagicMod, kH3Pow2, kH3Mod };

  static std::uint64_t mul_hi(std::uint64_t a, std::uint64_t b) {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<u128>(a) * b) >> 64);
  }

  std::uint64_t h3(Addr line_addr) const {
    std::uint64_t out = 0;
    for (std::uint32_t b = 0; b < h3_bits_; ++b)
      out |= static_cast<std::uint64_t>(parity(line_addr & kH3Rows[b])) << b;
    return out;
  }
  static std::uint32_t parity(std::uint64_t x) {
    return static_cast<std::uint32_t>(__builtin_popcountll(x)) & 1u;
  }

  Mode mode_ = Mode::kPow2Mask;
  std::uint64_t num_sets_ = 1;
  std::uint64_t mask_ = 0;  // num_sets-1 when power of two, else 0

  // Magic reciprocal for the non-pow2 modulo (computed in set_index.cpp).
  std::uint64_t magic_ = 0;
  std::uint32_t magic_shift_ = 0;
  bool magic_add_ = false;

  std::uint32_t h3_bits_ = 0;  // rows of kH3Rows the hash uses
};
// Every sim::Cache embeds one; the H3 rows are shared, not copied.
static_assert(sizeof(SetIndexer) == 48);

}  // namespace am::sim
