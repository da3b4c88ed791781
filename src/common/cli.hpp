#pragma once
// Minimal command-line flag parser shared by bench and example binaries.
// Supports --name=value, --name value, and boolean --name forms.
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace am {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;

  /// Numeric accessors validate the whole value (endptr + errno) and throw
  /// std::invalid_argument on anything unparseable, trailing junk, or
  /// out-of-range input — a typo'd flag must fail loudly, never silently
  /// become 0. An absent flag returns `def`.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;
  /// A duration in seconds: get_double, then std::invalid_argument
  /// unless the value is finite and >= 0 (strtod accepts "nan" and
  /// "inf", and neither may reach a sleep or a timeout).
  double get_seconds(const std::string& name, double def) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried — useful for catching typos in scripts.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace am
