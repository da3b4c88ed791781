#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace ambench {

double self_seconds(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> cover;
  for (const auto& c : children) {
    const double lo = std::max(c.start, span.start);
    const double hi = std::min(c.end, span.end);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [lo, hi] : cover) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  return (span.end - span.start) - covered;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Span>> children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back(s);
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    const auto it = children.find(s.id);
    const double self =
        it == children.end() ? s.end - s.start : self_seconds(s, it->second);
    out[s.name.substr(0, s.name.find('.'))] += self;
  }
  return out;
}

Trace::Trace(bool enabled)
    : enabled_(enabled), run_(static_cast<std::uint64_t>(::getpid())) {}

double Trace::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Trace::open(const std::string& name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const double t = now();
  return add(name, parent, t, t);
}

void Trace::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  const am::MutexLock lock(mutex_);
  spans_.at(id - 1).end = t;
}

std::uint64_t Trace::add(const std::string& name, std::uint64_t parent,
                         double start, double end) {
  if (!enabled_) return 0;
  const am::MutexLock lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, run_, name, start, end});
  return id;
}

void Trace::count(const std::string& key, double value) {
  if (!enabled_) return;
  const am::MutexLock lock(mutex_);
  counters_[key] += value;
}

void Trace::count_all(const std::map<std::string, double>& values) {
  if (!enabled_) return;
  const am::MutexLock lock(mutex_);
  for (const auto& [key, value] : values) counters_[key] += value;
}

void Trace::set_point_parent(std::uint64_t id) {
  const am::MutexLock lock(mutex_);
  point_parent_ = id;
}

std::uint64_t Trace::point_parent() const {
  const am::MutexLock lock(mutex_);
  return point_parent_;
}

std::vector<Span> Trace::spans() const {
  const am::MutexLock lock(mutex_);
  return spans_;
}

std::map<std::string, double> Trace::counters() const {
  const am::MutexLock lock(mutex_);
  return counters_;
}

void Trace::write(const std::string& path) const {
  std::ofstream out(path);
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  for (const auto& s : spans())
    out << "span\t" << s.id << '\t' << s.parent << '\t' << s.run << '\t'
        << s.name << '\t' << num(s.start) << '\t' << num(s.end) << '\n';
  for (const auto& [key, value] : counters())
    out << "count\t" << key << '\t' << num(value) << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

void Trace::absorb(const std::string& path, std::uint64_t parent) {
  if (!enabled_) return;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace " + path);
  const am::MutexLock lock(mutex_);
  const std::uint64_t offset = spans_.size();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::getline(fields, kind, '\t');
    if (kind == "span") {
      Span s;
      fields >> s.id >> s.parent >> s.run;
      fields.ignore(1);
      std::getline(fields, s.name, '\t');
      fields >> s.start >> s.end;
      if (!fields || s.id != spans_.size() - offset + 1)
        throw std::runtime_error("malformed span in " + path + ": " + line);
      s.id += offset;
      s.parent = s.parent == 0 ? parent : s.parent + offset;
      spans_.push_back(std::move(s));
    } else if (kind == "count") {
      std::string key;
      double value = 0.0;
      std::getline(fields, key, '\t');
      fields >> value;
      if (!fields)
        throw std::runtime_error("malformed counter in " + path + ": " + line);
      counters_[key] += value;
    }
  }
}

}  // namespace ambench
