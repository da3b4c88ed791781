#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own code, around calls into
// the repository's public functions and the callbacks those functions
// already take (WorkloadFactory, WorkloadInfo::measure_start,
// SweepRunnerOptions::checkpoint). Nothing inside the program is
// instrumented. A span's name is "<layer>.<what>"; the layer prefix is
// one of the repository's modules (common, sim, model, interfere,
// minimpi, apps, measure) or "bench" for the benchmark's own frame.
//
// Times are steady_clock seconds. CLOCK_MONOTONIC is system-wide on
// Linux, so spans written by worker processes line up with the parent's
// when a worker trace is absorbed.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ambench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t run = 0;     // id of the process that recorded it (pid)
  std::string name;          // "<layer>.<what>"
  double start = 0.0;
  double end = 0.0;
};

/// Seconds of `span` not covered by the union of its children's
/// intervals (clipped to the span). Children may overlap — points run
/// concurrently on a pool — so overlap is counted once.
double self_seconds(const Span& span, const std::vector<Span>& children);

/// Sum of self_seconds per layer (the name's prefix before the first
/// '.'). Parent/child links are by id.
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans);

/// Thread-safe span and counter sink. A disabled trace records nothing:
/// open() returns 0 and every other call is a no-op.
class Trace {
 public:
  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }
  static double now();

  /// Opens a span starting now; close() stamps its end.
  std::uint64_t open(const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);
  /// Records a finished span.
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    double start, double end);

  /// Adds `value` to the named counter.
  void count(const std::string& key, double value);
  /// Adds every counter of `values`.
  void count_all(const std::map<std::string, double>& values);

  /// The span that per-point spans recorded from pool threads hang off.
  void set_point_parent(std::uint64_t id);
  std::uint64_t point_parent() const;

  std::vector<Span> spans() const;
  std::map<std::string, double> counters() const;

  /// Writes spans and counters as tab-separated lines.
  void write(const std::string& path) const;
  /// Reads a file written by write() and adds its spans (ids renumbered,
  /// roots re-parented under `parent`) and counters to this trace.
  void absorb(const std::string& path, std::uint64_t parent);

 private:
  const bool enabled_;
  const std::uint64_t run_;
  mutable am::Mutex mutex_;
  std::vector<Span> spans_ AM_GUARDED_BY(mutex_);
  std::map<std::string, double> counters_ AM_GUARDED_BY(mutex_);
  std::uint64_t point_parent_ AM_GUARDED_BY(mutex_) = 0;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const std::string& name, std::uint64_t parent)
      : trace_(trace), id_(trace.open(name, parent)) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Trace& trace_;
  std::uint64_t id_;
};

}  // namespace ambench
