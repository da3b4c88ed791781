#pragma once
// Seeded test cases. A seeded case draws its inputs from googletest's
// --gtest_random_seed (0 by default): each --gtest_repeat repetition
// moves on to the next seed, so `--gtest_random_seed=S --gtest_repeat=N`
// covers seeds S..S+N-1. Tier-1 runs seed 0; CI's sanitizer job runs a
// wider range that way.
//
// mutate() is the byte-level edit the text-format fuzz cases share.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>

// googletest before 1.12 has no GTEST_FLAG_GET.
#ifdef GTEST_FLAG_GET
#define AM_RANDOM_SEED_FLAG GTEST_FLAG_GET(random_seed)
#else
#define AM_RANDOM_SEED_FLAG ::testing::GTEST_FLAG(random_seed)
#endif

namespace am::test {

/// The seed of this repetition of the running test: the flag's value
/// plus the number of earlier repetitions. (UnitTest::random_seed() is
/// not used: with the flag at 0 it is drawn from the clock.)
inline std::uint64_t repetition_seed() {
  static std::map<std::string, std::uint64_t> runs;
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return static_cast<std::uint64_t>(AM_RANDOM_SEED_FLAG) + runs[name]++;
}

/// Bytes a mutation writes: the format's separators and the characters
/// its numbers and keys are spelled with, plus a few outside both.
inline constexpr char kMutationBytes[] = {
    '\t', '\n', '\r', ' ', '\0', '0', '1', '9',    '-',
    '+',  '.',  'x',  'p', 'e',  'n', '#', '\x7f', '\xff'};

/// One seeded edit of `text`: one byte flipped, inserted or deleted, a
/// line duplicated, or the tail cut off.
inline std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto byte = [&] {
    return kMutationBytes[pick(sizeof(kMutationBytes))];
  };
  switch (pick(5)) {
    case 0: {  // flip one bit, or overwrite with a chosen byte
      char& c = text[pick(text.size())];
      c = pick(2) != 0 ? static_cast<char>(c ^ (1 << pick(8))) : byte();
      break;
    }
    case 1:
      text.insert(pick(text.size() + 1), 1, byte());
      break;
    case 2:
      text.erase(pick(text.size()), 1 + pick(4));
      break;
    case 3: {  // duplicate the line holding a random byte
      const std::size_t at = pick(text.size());
      const std::size_t begin = text.rfind('\n', at) + 1;  // npos + 1 == 0
      const std::size_t end = text.find('\n', at);
      const std::size_t stop = end == std::string::npos ? text.size() : end;
      text.insert(begin, text.substr(begin, stop - begin) + '\n');
      break;
    }
    default:
      text.resize(pick(text.size()));
      break;
  }
  return text;
}

/// Printable form of a failing input.
inline std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\t') out += "\\t";
    else if (c == '\n') out += "\\n\n";
    else if (c == '\r') out += "\\r";
    else if (static_cast<unsigned char>(c) < 0x20 ||
             static_cast<unsigned char>(c) >= 0x7f)
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    else out += c;
  }
  return out;
}

}  // namespace am::test
