#include "common/line_doc.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace am {

void LineWriter::put_double(double value) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "%a", value);
  text_.append(buf, static_cast<std::size_t>(n));
}

void LineWriter::put_text(std::string_view text) {
  if (text.find_first_of("\t\r\n") != std::string_view::npos)
    throw std::invalid_argument(
        "line document: a field may not hold a tab, CR or newline: '" +
        std::string(text) + "'");
  text_ += text;
}

std::string one_line(std::string text) {
  for (char& c : text)
    if (c == '\t' || c == '\r' || c == '\n') c = ' ';
  return text;
}

LineReader::LineReader(std::string text) : text_(std::move(text)) {
  pos_ = std::min(text_.find('\n'), text_.size());
  header_ = text_.substr(0, pos_);
  if (!header_.empty() && header_.back() == '\r') header_.pop_back();
  ++pos_;
}

std::optional<LineReader> LineReader::open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return LineReader(std::string(std::istreambuf_iterator<char>(in), {}));
}

bool LineReader::next() {
  while (pos_ < text_.size()) {
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    std::string_view line(text_.data() + pos_, end - pos_);
    pos_ = end + 1;
    ++line_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.find('\r') != std::string_view::npos)
      throw LineError(line_, "carriage return inside a record");
    // N tabs give N + 1 fields, empty ones included, so a field count
    // check catches missing and extra columns.
    fields_.clear();
    for (std::size_t start = 0;;) {
      const std::size_t tab = line.find('\t', start);
      fields_.emplace_back(line.substr(start, tab - start));
      if (tab == std::string_view::npos) return true;
      start = tab + 1;
    }
  }
  return false;
}

void LineReader::fail(std::size_t i, const char* what,
                      const std::string& must) const {
  const std::string name =
      what != nullptr ? what : "field " + std::to_string(i + 1);
  throw LineError(line_, name + " " + must);
}

std::uint64_t LineReader::u64(std::size_t i, const char* what) const {
  const std::string& s = str(i, what);
  std::uint64_t v = 0;
  if (!parse_u64(s, v))
    fail(i, what, "must be a non-negative integer below 2^64, got '" + s + "'");
  return v;
}

double LineReader::f64(std::size_t i, const char* what) const {
  const std::string& s = str(i, what);
  double v = 0.0;
  if (!parse_double(s, v)) fail(i, what, "must be a number, got '" + s + "'");
  return v;
}

}  // namespace am
