#pragma once
// Liveness files for supervised worker processes. A worker constructs a
// HeartbeatWriter on a path inside a directory its supervisor watches; a
// background thread rewrites the file (pid + monotonic beat sequence
// number) at a fixed interval, and removes it again on clean shutdown.
// The supervisor (measure::WorkerFleet) polls the file with
// read_heartbeat and judges liveness by whether the beat sequence keeps
// advancing against its own steady clock — waitpid only reports
// *exits*, a SIGSTOPped or D-state child reports nothing forever.
// Deliberately NOT by file timestamps: mtimes come from the wall clock,
// so an NTP step could fake a stall (or mask a real one), while the
// beat counter is monotonic no matter what the clock does. A worker
// that never produced a first beat is the one case with no sequence to
// watch; supervisors fall back to time-since-spawn on their own steady
// clock for it. A leftover heartbeat file after a child is gone means
// it died without cleanup (crash or kill).
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace am {

/// One parsed heartbeat file: "pid <tab> beats".
struct Heartbeat {
  std::uint64_t pid = 0;
  /// Monotonic beat sequence number (rewrites so far). Progress of this
  /// counter between two supervisor polls is the liveness signal.
  std::uint64_t beats = 0;
};

/// The last heartbeat written to `path`, or nullopt when the file is
/// absent or malformed (a torn read mid-rewrite counts as absent).
std::optional<Heartbeat> read_heartbeat(const std::string& path);

class HeartbeatWriter {
 public:
  /// Writes the first beat immediately (so a supervisor sees the file as
  /// soon as spawn completes), then every `interval_seconds`.
  explicit HeartbeatWriter(std::string path, double interval_seconds = 0.25);

  /// stop()s; the file is gone after destruction unless the process dies
  /// first — which is exactly the signal a leftover file carries.
  ~HeartbeatWriter();

  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  /// Joins the writer thread and removes the file. Idempotent, and safe
  /// to call from several threads at once (the join is serialized); only
  /// destruction itself must be externally synchronized, as usual.
  void stop();

  const std::string& path() const { return path_; }

  /// Beats written so far (the constructor writes the first one). Relaxed
  /// read: a monotonic progress probe for tests and debugging, not a
  /// synchronization edge — supervisors read the *file*, whose visibility
  /// is ordered by the atomic rename inside try_atomic_write_file.
  std::uint64_t beats() const {
    return beats_.load(std::memory_order_relaxed);
  }

 private:
  void write_beat();

  std::string path_;
  double interval_;
  /// Incremented only by the writer thread (and the constructor, before
  /// that thread exists — thread creation orders those two). Relaxed is
  /// sufficient: no other data is published through this counter.
  std::atomic<std::uint64_t> beats_{0};
  /// Stop request. stop() stores with release before notifying; the
  /// writer thread loads with acquire, so everything stop()'s caller did
  /// before stopping happens-before the writer's final wakeup. The
  /// store-then-lock-then-notify sequence in stop() closes the classic
  /// lost-wakeup window (flag checked, then stop runs entirely, then CV
  /// wait starts — the empty critical section on mutex_ forbids it).
  std::atomic<bool> stopped_{false};
  Mutex mutex_;  // the CV's mutex; the writer thread holds it while awake
  std::condition_variable cv_;
  Mutex join_mutex_;
  std::thread thread_ AM_GUARDED_BY(join_mutex_);
};

}  // namespace am
