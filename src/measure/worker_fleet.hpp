#pragma once
// One supervisor for lease-worker processes, shared by both sweep
// front-ends: the one-shot orchestrator (measure::SweepOrchestrator) and
// the multi-tenant daemon (measure::SweepDaemon). WorkerFleet::pass is
// their one fleet pass — spawn on idle slots, poll live ones, route
// acks, hand out the next offer or a `done`, report exits — and each
// supplies only its policy (FleetPolicy): the next offer for a slot and
// its owner, whether a worker with nothing left to take is told `done`,
// and what an ack, a worker exit and an unspawnable command mean. Each
// slot owns one lease file (common/work_lease.hpp) and at most one live
// worker, spawned as `argv(lease_path)`. Per slot the fleet keeps:
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
// Both front-ends keep one LeaseBook per plan; LeaseBook::requeue is
// their one crash-requeue rule.
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

/// An offer for a slot, and the owner its held lease is tagged with.
struct OwnedOffer {
  LeaseOffer offer;
  std::uint64_t owner = 0;
};

/// A front-end's policy, called by WorkerFleet::pass slot by slot.
struct FleetPolicy {
  /// The next offer for slot `w`, or nullopt for none now. `spawn`: `w`
  /// is idle (a worker would be spawned for it), else its worker wants one.
  std::function<std::optional<OwnedOffer>(std::size_t w, bool spawn)> next;
  /// Tell a worker that wants an offer and gets none `done`; else it
  /// keeps polling its last offer.
  bool done_when_dry = true;
  /// A spawn's first offer or a live worker's next.
  std::function<void(std::size_t w, const HeldLease& held)> offered;
  std::function<void(std::size_t w, const HeldLease& held,
                     const LeaseAck& ack)>
      acked;
  /// After the exited worker's final acks.
  std::function<void(std::size_t w, const WorkerExit& exit)> exited;
  /// No worker could be started for `owner`'s offer; nothing is held.
  std::function<void(std::size_t w, std::uint64_t owner,
                     const std::string& why)>
      unspawnable;
};

struct FleetPass {
  bool progressed = false;  // a spawn, offer, ack or exit happened
  bool any_live = false;    // a worker is live after the pass
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

  bool ever_spawned(std::size_t w) const;
  const std::string& lease_path(std::size_t w) const;

  /// One fleet pass: spawns a worker on every idle slot `policy` has an
  /// offer for, then polls every live slot. Logs spawns, acks, stall
  /// kills and exits to `log`. Throws when an offer cannot be written to
  /// a live slot.
  FleetPass pass(const FleetPolicy& policy, std::ostream& log);

  WorkerStat stat(std::size_t w) const;

 private:
  struct Slot;

  /// Asks `policy` for idle slot `w`'s offer; with one, clears the
  /// slot's handoff files, writes it, then spawns a worker — so even a
  /// worker that dies at startup dies holding a lease. True if it tried.
  bool spawn(std::size_t w, const FleetPolicy& policy, std::ostream& log);
  /// Stamps the offer's lease id, writes it to the slot and returns the
  /// held lease.
  const HeldLease& offer(std::size_t w, LeaseOffer offer, std::uint64_t owner);
  /// Tells a live slot's worker to exit once its open leases are done.
  void offer_done(std::size_t w);
  void poll(std::size_t w, const FleetPolicy& policy, FleetPass& out,
            std::ostream& log);

  WorkerFleetOptions opts_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::uint64_t next_id_ = 1;
};

/// One plan's lease bookkeeping, the same in both front-ends.
struct LeaseBook {
  std::deque<WorkLease> pending;      // waiting batches, front first
  std::vector<std::size_t> failures;  // per-point crash charges
  std::vector<bool> done;             // per plan point
  std::size_t done_points = 0;
  /// Batches leased and not yet back; exact while the plan is served.
  std::size_t outstanding = 0;
  std::size_t executed = 0;  // engine runs the acks reported

  LeaseBook() = default;
  /// No point done yet. Throws std::length_error or std::bad_alloc for a
  /// count no plan could hold.
  explicit LeaseBook(std::size_t points);

  std::size_t points() const { return done.size(); }
  bool finished() const {
    return done_points == points() && outstanding == 0 && pending.empty();
  }

  /// Clears the crash charges and queues the points not yet done as
  /// make_batches slices, `target` clamped to [1, their count] and
  /// `costs` empty or one per plan point. Returns the points queued.
  std::size_t cut(std::size_t target, const std::vector<double>& costs);
  WorkLease take();  // leases the front batch
  void ack(const WorkLease& lease, std::size_t executed_runs);
  /// The one crash-requeue rule: charges each point of a batch whose
  /// worker died holding it one failure, drops the points whose charges
  /// exceed `retries`, and pushes the rest back to the front as two
  /// halves, front half first, the cost split per point — so successive
  /// crashes bisect toward a poison point, and the halves can land on
  /// different slots. Returns the number of points dropped.
  std::size_t requeue(const WorkLease& lease, std::size_t retries,
                      std::size_t worker, std::ostream& log);
};

}  // namespace am::measure
