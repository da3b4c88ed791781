#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace am {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  // Full-string validation: "abc", "12abc" and out-of-range values must
  // throw, not quietly become 0 — a typo'd --reps must never run a 0-rep
  // sweep. (A value-less "--reps" parses as "true" and lands here too.)
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                s + "'");
  if (errno == ERANGE)
    throw std::invalid_argument("--" + name + ": integer out of range: '" +
                                s + "'");
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                s + "'");
  // Only overflow is an error: ERANGE also fires for underflow to a
  // subnormal (e.g. 1e-320), which strtod still parses to a usable value.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
    throw std::invalid_argument("--" + name + ": number out of range: '" + s +
                                "'");
  return v;
}

double Cli::get_seconds(const std::string& name, double def) const {
  const double v = get_double(name, def);
  if (!std::isfinite(v) || v < 0.0)
    throw std::invalid_argument("--" + name +
                                " must be a finite value >= 0");
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto s = get(name, "");
  if (s.empty()) return def;
  return s == "true" || s == "1" || s == "yes" || s == "on";
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_)
    if (!queried_.count(name)) out.push_back(name);
  return out;
}

}  // namespace am
