#pragma once
// Internal to the measure layer: the field splitter shared by the
// tab-separated formats it parses (plan specs, result stores).
#include <string>
#include <vector>

namespace am::measure {

/// Splits `line` at every tab. N tabs give N + 1 fields, empty ones
/// included, so a field count check catches missing and extra columns.
inline std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

}  // namespace am::measure
