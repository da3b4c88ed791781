#pragma once
// Strict whole-string number parsing for the repo's line-oriented file
// formats (result stores, plan specs, lease/ack/plan-info files, the
// daemon's queue). These only decide; each caller words its own error.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace am {

/// Digits only: strtoull alone would accept whitespace and signs,
/// silently wrapping an edited "-123" to 2^64-123. False on an empty
/// string, any other character, or a value above 2^64-1.
inline bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// The whole string is one strtod number (decimal or hexfloat; "nan"
/// and "inf" parse too, so range checks are the caller's). False on an
/// empty string, trailing characters, or ERANGE.
inline bool parse_double(const std::string& s, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && errno != ERANGE;
}

}  // namespace am
