#pragma once
// Deterministic, fast pseudo-random number generation for simulation agents.
//
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64. Every simulator
// agent owns its own Rng so multi-agent interleavings stay reproducible
// regardless of execution order.
#include <cstdint>
#include <limits>

namespace am {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator, so it can be
/// plugged into <random> distributions as well as used directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull) {
    reseed(seed);
  }

  constexpr void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction;
  /// the tiny modulo bias is irrelevant for simulation workloads.
  std::uint64_t bounded(std::uint64_t bound) {
    __extension__ using u128 = unsigned __int128;
    const u128 m = static_cast<u128>(operator()()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace am
