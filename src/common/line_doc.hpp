#pragma once
// The line-record codec behind every text document the sweep pipeline
// writes (docs/ARCHITECTURE.md, "Text formats"): a header line naming the
// format and version, then one record per line, fields split at tabs. It
// decides only how a line is split and how a value is spelled: a string
// field may not hold a tab, CR or newline (free text goes through
// one_line), integers are decimal and doubles hexfloat, so every double
// round-trips bit-exactly. A reader skips blank lines, drops one trailing
// CR per line and refuses any other. Each format keeps its own policy:
// header, required keys, unknown keys, error wording.
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/atomic_file.hpp"

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

/// A record the codec cannot read: a missing field, a misspelled number
/// or a stray CR. what() is the reason alone, so strict formats can word
/// it under their own prefix; lenient ones read the document as absent.
class LineError : public std::runtime_error {
 public:
  LineError(std::size_t line, const std::string& why)
      : std::runtime_error(why), line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Builds a document: the header line, then one record per row().
class LineWriter {
 public:
  explicit LineWriter(std::string_view header) : text_(header) {
    text_ += '\n';
  }

  /// Appends one record. A field is a string, an integer (decimal), a
  /// bool (0 or 1), a double (hexfloat) or a vector of those, which adds
  /// one field per element. Throws std::invalid_argument when a string
  /// holds a tab, CR or newline.
  template <typename... Fields>
  LineWriter& row(const Fields&... fields) {
    std::size_t n = 0;
    (put(fields, n), ...);
    text_ += '\n';
    return *this;
  }

  const std::string& str() const { return text_; }
  void save(const std::string& path, const std::string& what) const {
    atomic_write_file(path, text_, what);
  }

 private:
  template <typename T>
  void put(const std::vector<T>& values, std::size_t& n) {
    for (const auto& value : values) put(value, n);
  }
  template <typename T>
  void put(const T& value, std::size_t& n) {
    if (n++ > 0) text_ += '\t';
    if constexpr (std::is_same_v<T, bool>) {
      text_ += value ? '1' : '0';
    } else if constexpr (std::is_floating_point_v<T>) {
      put_double(value);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(!std::is_same_v<T, char>, "write chars as strings");
      char buf[24];
      text_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    } else {
      put_text(value);
    }
  }
  void put_double(double value);
  void put_text(std::string_view text);

  std::string text_;
};

/// `text` with every tab, CR and newline turned into a space: how free
/// text (an error message) becomes one storable field.
std::string one_line(std::string text);

/// Reads a document: its header line, then one record at a time. The
/// accessors read the current record; the typed ones throw LineError
/// naming its line, and `what` names the field in the message ("field
/// <i + 1>" when null).
class LineReader {
 public:
  /// `text` is the whole document.
  explicit LineReader(std::string text);
  /// The file's document; nullopt when it cannot be opened.
  static std::optional<LineReader> open(const std::string& path);

  /// The first line, trailing CR dropped.
  const std::string& header() const { return header_; }
  /// Moves to the next non-blank line; false after the last. Throws
  /// LineError on a CR inside the line.
  bool next();

  /// The current record's 1-based line number in the document.
  std::size_t line() const { return line_; }
  std::size_t size() const { return fields_.size(); }
  /// The first field; a record always has one (it may be empty).
  const std::string& key() const { return fields_.front(); }
  const std::string& str(std::size_t i, const char* what = nullptr) const {
    if (i >= fields_.size()) fail(i, what, "is missing");
    return fields_[i];
  }
  std::uint64_t u64(std::size_t i, const char* what = nullptr) const;
  std::uint32_t u32(std::size_t i, const char* what = nullptr) const {
    const std::uint64_t v = u64(i, what);
    if (v > UINT32_MAX) fail(i, what, "out of range");
    return static_cast<std::uint32_t>(v);
  }
  /// Decimal or hexfloat; "nan" and "inf" read too, so range checks are
  /// the format's.
  double f64(std::size_t i, const char* what = nullptr) const;
  /// "0" or "1".
  bool flag(std::size_t i, const char* what = nullptr) const {
    const std::string& s = str(i, what);
    if (s != "0" && s != "1") fail(i, what, "must be 0 or 1, got '" + s + "'");
    return s == "1";
  }

 private:
  [[noreturn]] void fail(std::size_t i, const char* what,
                         const std::string& must) const;

  std::string text_;
  std::string header_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::vector<std::string> fields_;
};

}  // namespace am
