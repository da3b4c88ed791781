#pragma once
// One supervisor for lease-worker processes, shared by both sweep
// front-ends: the one-shot orchestrator (measure::SweepOrchestrator) and
// the multi-tenant daemon (measure::SweepDaemon) keep only their policy —
// which batch to offer next, and what an acknowledged or orphaned lease
// means for their report or job. Each slot of a fleet owns one lease
// file (common/work_lease.hpp) and at most one live worker, spawned as
// `argv(lease_path)`. Per slot the fleet keeps:
//
//   * Liveness: the worker's heartbeat (`<lease>.hb`) must advance its
//     beat *sequence* against the fleet's own steady clock — never file
//     mtimes, which an NTP step could fake or mask — and a worker with
//     no beat a timeout after spawn counts as stalled too. Stalled
//     workers are killed; their exit surfaces like any other.
//   * Held leases: offers not yet acknowledged, tagged with their owner.
//     Each ack record of a held lease is handled exactly once. Lease ids
//     are stamped fleet-wide, so a requeued batch never reuses an id.
//   * The `ready` rule: a live worker wants its next offer when it holds
//     nothing, or when its ack file says `ready` for the last offer
//     (measure/lease.hpp).
//   * Accounting: respawns, batches, points, and busy time as the union
//     of the slot's lease intervals (streamed leases overlap).
//
// requeue_with_bisect is the one crash-requeue rule of both front-ends.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "common/work_lease.hpp"

namespace am::measure {

/// The exit-code contract between a scheduler and its workers (bench
/// drivers in --worker mode, `amsweepd --worker`). Anything else —
/// including a signal — is a retryable failure.
inline constexpr int kWorkerExitOk = 0;
/// Bad flags / malformed plan or offer: retrying cannot help.
inline constexpr int kWorkerExitUsage = 2;
/// Runtime failure (exception out of the sweep); retryable.
inline constexpr int kWorkerExitRunFailed = 3;

/// An offered lease a slot has not acknowledged yet.
struct HeldLease {
  WorkLease lease;          // id stamped by the fleet at offer time
  std::uint64_t owner = 0;  // the daemon's job id; 0 for the orchestrator
};

/// Per-slot load-balance accounting.
struct WorkerStat {
  std::size_t worker = 0;
  /// Wall time with at least one lease of this slot running: the union
  /// of its acknowledged leases' intervals (overlapping leases count
  /// once), each ending when its ack was seen and lasting the worker's
  /// reported wall-clock, never reaching back before its spawn.
  double busy_seconds = 0.0;
  std::size_t batches = 0;
  std::size_t points = 0;
  std::size_t respawns = 0;  // crash/stall recoveries on this slot
  /// Batches this slot ran beyond an even share — work it pulled that a
  /// fixed partition would have left queued behind a slower worker.
  std::size_t steals = 0;
};

/// Seconds with two decimals, as logs and manifests print them.
std::string fmt_seconds(double s);

/// Seconds elapsed on the steady clock since `t0`.
double seconds_since(std::chrono::steady_clock::time_point t0);

/// Max over mean of the slots' busy time, "%.4f"-formatted for the
/// manifests; empty when no slot was busy.
std::string busy_max_over_mean(const std::vector<WorkerStat>& stats);

/// One acknowledged lease.
struct LeaseDone {
  HeldLease held;
  LeaseAck ack;
};

/// How one worker process ended.
struct WorkerExit {
  ExitStatus status;
  double wall_seconds = 0.0;
  std::uint64_t heartbeats = 0;  // last beat sequence number seen
  bool stalled = false;          // the fleet killed it for a stalled beat
  /// Exited 0 after its `done` offer, holding nothing: a clean shutdown.
  bool drained = false;
  std::vector<HeldLease> held;  // leases it died holding, oldest first
};

/// What one poll of a live slot found.
struct SlotPoll {
  std::vector<LeaseDone> done;  // in acknowledgement order
  /// Live, not yet told `done`, and holding nothing or `ready`.
  bool wants_offer = false;
  std::optional<WorkerExit> exit;  // set when the process was seen gone
};

struct WorkerFleetOptions {
  std::vector<std::string> lease_paths;  // one per slot
  /// The worker command for a slot's lease file.
  std::function<std::vector<std::string>(const std::string& lease_path)>
      argv;
  /// Kill a worker whose beat sequence has not advanced for this long,
  /// or that wrote no beat this long after spawn (0 = never).
  double stall_timeout_seconds = 0.0;
};

class WorkerFleet {
 public:
  explicit WorkerFleet(WorkerFleetOptions opts);
  ~WorkerFleet();  // kills and reaps every live worker

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  std::size_t size() const;
  bool live(std::size_t w) const;
  bool ever_spawned(std::size_t w) const;
  const std::string& lease_path(std::size_t w) const;

  /// Clears slot `w`'s handoff files, writes `first` as its first offer,
  /// then spawns a worker on it — so even a worker that dies at startup
  /// dies holding a lease. Returns the held lease, id stamped. Throws
  /// when the offer cannot be written or the command cannot be spawned;
  /// the lease is then not held.
  const HeldLease& spawn(std::size_t w, LeaseOffer first,
                         std::uint64_t owner, std::ostream& log);
  /// Stamps the offer's lease id, writes it to a live slot and returns
  /// the held lease.
  const HeldLease& offer(std::size_t w, LeaseOffer offer, std::uint64_t owner);
  /// Tells a live slot's worker to exit once its open leases are done.
  void offer_done(std::size_t w);

  /// Supervises a live slot: heartbeat and stall kill first, then
  /// liveness, then the ack file — a worker seen exited has written its
  /// last ack, so the read sees every lease it acknowledged. Logs acks,
  /// stall kills and exits to `log`.
  SlotPoll poll(std::size_t w, std::ostream& log);

  void kill_all();
  WorkerStat stat(std::size_t w) const;

 private:
  struct Slot;
  WorkerFleetOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint64_t next_id_ = 1;
};

/// Requeues a lease whose worker died holding it: charges each of its
/// points one failure in `failures` (indexed by plan point), drops the
/// points whose charges exceed `retries`, and pushes the survivors back
/// to the front of `queue` as two halves, front half first, with the
/// cost split per point. Successive crashes so bisect toward a poison
/// point instead of charging a whole batch each time, and the halves
/// can land on different slots. Returns the number of points dropped.
std::size_t requeue_with_bisect(const WorkLease& lease, std::size_t retries,
                                std::vector<std::size_t>& failures,
                                std::deque<WorkLease>& queue,
                                std::size_t worker, std::ostream& log);

}  // namespace am::measure
