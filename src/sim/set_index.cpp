#include "sim/set_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace am::sim {
namespace {

struct Magic {
  std::uint64_t m = 0;
  std::uint32_t shift = 0;
  bool add = false;
};

/// Unsigned magic-number computation, Hacker's Delight figure 10-2
/// (magicu) widened to 64 bits: finds (M, s, add) such that
/// floor(x / d) == mul_hi(x, M) >> s (plus the one-bit `add` fold when M
/// needs 65 bits) for EVERY 64-bit x. Only called for non-power-of-two
/// d >= 3; exactness over the full address space is property-tested
/// against `/` and `%` in tests/sim/set_index_test.cpp.
Magic magicu64(std::uint64_t d) {
  Magic mag;
  const std::uint64_t two63 = 0x8000000000000000ull;
  const std::uint64_t nc = ~0ull - (0ull - d) % d;  // largest nc*d-1 <= 2^64-1
  std::uint32_t p = 63;
  std::uint64_t q1 = two63 / nc;            // 2^p / nc
  std::uint64_t r1 = two63 - q1 * nc;       // rem(2^p, nc)
  std::uint64_t q2 = (two63 - 1) / d;       // (2^p - 1) / d
  std::uint64_t r2 = (two63 - 1) - q2 * d;  // rem(2^p - 1, d)
  std::uint64_t delta = 0;
  do {
    ++p;
    if (r1 >= nc - r1) {
      q1 = 2 * q1 + 1;
      r1 = 2 * r1 - nc;
    } else {
      q1 = 2 * q1;
      r1 = 2 * r1;
    }
    if (r2 + 1 >= d - r2) {
      if (q2 >= two63 - 1) mag.add = true;
      q2 = 2 * q2 + 1;
      r2 = 2 * r2 + 1 - d;
    } else {
      if (q2 >= two63) mag.add = true;
      q2 = 2 * q2;
      r2 = 2 * r2 + 1;
    }
    delta = d - 1 - r2;
  } while (p < 128 && (q1 < delta || (q1 == delta && r1 == 0)));
  mag.m = q2 + 1;
  mag.shift = p - 64;
  return mag;
}

}  // namespace

const char* set_hash_name(SetHash hash) {
  return hash == SetHash::kH3 ? "h3" : "mask";
}

SetIndexer::SetIndexer(SetHash hash, std::uint64_t num_sets)
    : num_sets_(num_sets) {
  if (num_sets == 0)
    throw std::invalid_argument("SetIndexer: zero sets");
  const bool pow2 = std::has_single_bit(num_sets);
  if (pow2) {
    mask_ = num_sets - 1;
  } else {
    const Magic mag = magicu64(num_sets);
    magic_ = mag.m;
    magic_shift_ = mag.shift;
    magic_add_ = mag.add;
  }
  if (hash == SetHash::kMask) {
    mode_ = pow2 ? Mode::kPow2Mask : Mode::kMagicMod;
    return;
  }
  mode_ = pow2 ? Mode::kH3Pow2 : Mode::kH3Mod;
  // Output width: exactly log2(sets) bits for power-of-two set counts;
  // otherwise eight guard bits beyond the set-count width before the
  // reciprocal reduction, keeping the modulo bias under 1/256.
  const auto width =
      static_cast<std::uint32_t>(std::bit_width(num_sets - 1));
  h3_bits_ = pow2 ? width : std::min(64u, width + 8u);
}

}  // namespace am::sim
