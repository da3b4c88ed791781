#pragma once
// Multi-process sweep orchestration: run one ExperimentPlan across
// supervised lease workers and merge their stores into the canonical
// file. The orchestrator first probes the driver (`--emit-plan`) for the
// plan size and per-point cost estimates (SweepRunner::estimate_costs:
// measured run times when the store has them, the cold-cost model
// otherwise), cuts the cost-sorted points into slices
// (LeaseBook::cut), and serves them costliest first from one queue
// through the fleet pass (WorkerFleet::pass, measure/worker_fleet),
// which spawns each worker as `<command> --results-dir <dir> --lease
// <file> --worker` and streams offers to it (measure/lease.hpp). The
// manifest records every lease assignment plus per-worker load-balance
// stats (busy time, batch count, steals). Without a fleet, slice() makes
// the same cut once, into one static lease file per host.
//
// Guarantees:
//
//   * Same numbers as a serial run: workers execute original plan
//     indices (original per-point seeds), and the merge is
//     ResultStore::merge — the merged store is bit-identical to the
//     store a serial run writes, however the points were scheduled.
//   * Crash containment: a worker that exits while holding leases —
//     non-zero, on a signal, or killed for a stalled heartbeat — has
//     them requeued with a per-point retry budget (LeaseBook::requeue).
//     Workers checkpoint their store as points complete, so a retry
//     re-runs mostly cache hits. A worker rejecting its flags
//     (kWorkerExitUsage) aborts the whole sweep instead — every other
//     worker would reject them too.
//   * No silent holes: exhausted retry budgets fail the sweep and the
//     manifest names the missing points; the manifest also records the
//     host fingerprint, per-worker-process wall-clock/exit status/
//     heartbeats, and the lease log, success or not.
//   * Liveness supervision: the fleet's beat-sequence watch, judged
//     against the orchestrator's own steady clock, never file mtimes.
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "common/work_lease.hpp"
#include "measure/result_store.hpp"
#include "measure/worker_fleet.hpp"

namespace am::measure {

/// How plan points are assigned to workers: batches leased from a queue
/// as workers free up, the only mode.
enum class Schedule {
  kLease,
};

struct OrchestratorOptions {
  /// The worker command: a figure driver plus its figure flags. The
  /// orchestrator appends `--results-dir <dir> --emit-plan <file>` for
  /// the plan probe and `--results-dir <dir> --lease <file> --worker`
  /// for each worker.
  std::vector<std::string> worker_command;
  std::string results_dir;
  /// Store-file naming stem, matching what the driver passes to its
  /// ResultStoreFile — for the bench drivers, the executable name.
  std::string driver;
  /// Lease is the only schedule; the field stays only because
  /// ambench/workloads.cpp sets it.
  Schedule schedule = Schedule::kLease;
  /// Worker processes running concurrently.
  std::size_t workers = 2;
  /// Extra attempts per plan point beyond the first (a point is charged
  /// whenever a lease holding it dies).
  std::size_t retries = 1;
  /// Delay between polls of the worker fleet when a pass made no
  /// progress. It bounds the latency of every handoff (ack, next offer,
  /// exit), so it is short; one pass is a few small file reads. The plan
  /// probe is polled with a backoff from 1 ms up to this.
  double poll_seconds = 0.005;
  /// Kill a worker whose beat sequence has not advanced for this long
  /// (0 = disabled). Workers write their first beat at startup, so a
  /// worker with no beat at all this long after spawn counts as stalled
  /// too; the same timeout bounds the plan probe.
  double stall_timeout_seconds = 0.0;
  /// Target number of batches (0 = auto, a few per worker slot so early
  /// finishers keep pulling work). Clamped to the plan.
  std::size_t lease_batches = 0;
  /// Serve points in the probe's cost order (measured run times from the
  /// store's sidecar, else the cold-cost model); false = uniform costs,
  /// i.e. plan order.
  bool use_measured_costs = true;
};

/// One worker process's lifetime, as recorded in the manifest: `shard`
/// is the worker slot and `attempt` its respawn ordinal.
struct ShardAttempt {
  std::size_t shard = 0;
  std::size_t attempt = 0;  // 0 = first try
  ExitStatus status;
  double wall_seconds = 0.0;
  /// Last beat counter observed from the worker's heartbeat file (0 when
  /// the worker emitted none, e.g. stand-in test commands).
  std::uint64_t heartbeats = 0;
  /// True when the orchestrator killed this worker for a stale
  /// (sequence-stuck) heartbeat.
  bool stalled = false;
};

/// One lease's journey through the queue, as recorded in the manifest.
struct LeaseLogEntry {
  std::uint64_t id = 0;
  std::size_t worker = 0;     // slot it was offered to
  std::size_t points = 0;
  double cost = 0.0;          // scheduler's estimate, relative units
  std::size_t executed = SIZE_MAX;  // SIZE_MAX until acknowledged
  double wall_seconds = 0.0;
  bool completed = false;  // false = worker died holding it (re-queued)
};

struct OrchestratorReport {
  bool success = false;
  std::vector<ShardAttempt> attempts;  // chronological retry log
  /// Plan points whose per-point retry budget ran out.
  std::vector<std::size_t> missing_points;
  std::vector<LeaseLogEntry> leases;
  std::vector<WorkerStat> worker_stats;
  std::size_t plan_points = SIZE_MAX;  // SIZE_MAX = no probe answer
  std::string merged_path;
  std::size_t merged_records = 0;
  /// Total engine runs across acknowledged leases — 0 for a fully
  /// cached re-run of an already-merged sweep.
  std::size_t engine_runs = 0;
  double wall_seconds = 0.0;
  std::string error;  // first fatal error (usage abort, merge conflict)
};

class SweepOrchestrator {
 public:
  /// Throws std::invalid_argument on an unusable configuration (empty
  /// command/results_dir/driver, zero workers).
  explicit SweepOrchestrator(OrchestratorOptions opts);

  /// Runs the sweep to completion, streaming progress lines to `log`.
  /// Failures are reported, not thrown: the report (and the manifest on
  /// disk) always describes what happened.
  OrchestratorReport run(std::ostream& log);

  /// The manual multi-host recipe: probes the driver as run() does, cuts
  /// the plan into `hosts` cost-ordered slices (make_batches) and writes
  /// slice i as a done lease offer <results_dir>/slice_<i> holding its
  /// points, for `<command> --results-dir R --lease <that file>` on host
  /// i. Returns the offer paths, or nullopt with `error` set when the
  /// probe failed or answered unreadable plan info. Throws
  /// std::invalid_argument for zero hosts.
  std::optional<std::vector<std::string>> slice(std::size_t hosts,
                                                std::string& error) const;

  /// <results_dir>/<driver>.manifest.tsv — where run() records the
  /// outcome.
  static std::string manifest_path(const std::string& results_dir,
                                   const std::string& driver);

 private:
  /// Runs the --emit-plan probe; nullopt when it failed (`error` set).
  std::optional<PlanInfo> probe_plan(std::string& error) const;
  void run_lease(OrchestratorReport& report, std::ostream& log) const;
  void finish_merge(OrchestratorReport& report,
                    const std::vector<ResultStore>& stores,
                    std::ostream& log) const;
  void write_manifest(const OrchestratorReport& report) const;

  OrchestratorOptions opts_;
};

}  // namespace am::measure
