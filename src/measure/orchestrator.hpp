#pragma once
// Multi-process sweep orchestration: run one ExperimentPlan across
// supervised worker processes and merge their stores into the canonical
// file. Two scheduling modes over one worker fleet:
//
//   * Static (`Schedule::kStatic`) — the PR-4 behaviour: each worker is
//     spawned owning a fixed round-robin slice (`--shard i/n`), retries
//     are per-shard. Simple, but the sweep's wall-clock is pinned to the
//     unluckiest slice on heterogeneous grids.
//   * Lease (`Schedule::kLease`) — dynamic work-queue scheduling: the
//     orchestrator first probes the driver (`--emit-plan`) for the plan
//     size and per-point cost estimates, builds size-aware batches
//     (common/work_lease.hpp make_batches — greedy LPT over measured run
//     times when the store has them), then feeds batches to worker
//     slots (`--lease <file>`) through atomically-written lease files.
//     A slot gets its next offer when it holds no lease, or when its
//     ack file says `ready` for the last offer — the worker has that
//     lease's points running or done and wants more while they run
//     (measure/lease.hpp), so a slot may hold several leases at once.
//     Every acknowledged record of a held lease is processed once. A
//     crashed or stalled worker's leases are all re-queued with a
//     per-point retry budget; the manifest records every lease
//     assignment plus per-worker load-balance stats (busy time, batch
//     count, steals).
//
// Guarantees, in both modes:
//
//   * Same numbers as a serial run: workers execute original plan
//     indices (original per-point seeds), and the merge is
//     ResultStore::merge — the merged store is bit-identical to the
//     store an unsharded run writes, however the points were scheduled.
//   * Crash containment: a worker that exits non-zero or dies on a
//     signal is retried (fresh process, bounded budget — per shard in
//     static mode, per point in lease mode). Workers checkpoint their
//     store as points complete, so a retry re-runs only the recent
//     points. A worker rejecting its flags (kWorkerExitUsage) aborts the
//     whole sweep instead — every other worker would reject them too.
//   * No silent holes: exhausted retry budgets fail the sweep and the
//     manifest names the missing shards/points; the manifest also
//     records the host fingerprint, per-attempt wall-clock/exit
//     status/heartbeats, and the retry log, success or not.
//   * Liveness supervision: workers maintain a heartbeat file whose
//     payload carries a monotonic beat sequence number. Staleness is
//     judged by sequence progress against the orchestrator's own
//     steady clock — never by file timestamps, so an NTP step can
//     neither fake a stall nor mask one. A worker that never writes its
//     first beat within the timeout is treated the same.
//   * No no-op workers: shards/leases that would own zero plan points
//     (plan smaller than the shard count) are never spawned at all when
//     the plan size is known from a probe.
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "common/work_lease.hpp"
#include "measure/result_store.hpp"

namespace am::measure {

/// The exit-code contract between the orchestrator and its workers
/// (bench drivers in --worker mode). Anything else — including a signal —
/// is a retryable failure.
inline constexpr int kWorkerExitOk = 0;
/// Bad flags / malformed plan spec: retrying cannot help, and every other
/// shard would fail identically, so the orchestrator aborts the sweep.
inline constexpr int kWorkerExitUsage = 2;
/// Runtime failure (exception out of the sweep); retryable.
inline constexpr int kWorkerExitRunFailed = 3;

/// How plan points are assigned to workers.
enum class Schedule {
  kStatic,  // fixed --shard i/n slices chosen at spawn
  kLease,   // batches leased from a queue as workers free up
};

struct OrchestratorOptions {
  /// The worker command: a figure driver plus its figure flags. The
  /// orchestrator appends `--results-dir <dir> --shard i/n --worker`
  /// (static) or `--results-dir <dir> --lease <file> --worker` (lease)
  /// to it per worker (disable via append_worker_flags for custom
  /// static workers; lease mode requires the appended contract).
  std::vector<std::string> worker_command;
  std::string results_dir;
  /// Store-file naming stem, matching what the driver passes to its
  /// ResultStoreFile — for the bench drivers, the executable name.
  std::string driver;
  Schedule schedule = Schedule::kStatic;
  std::size_t shards = 2;
  /// Worker processes running concurrently; a failed shard/lease is
  /// retried on whichever slot frees up next.
  std::size_t workers = 2;
  /// Extra attempts beyond the first — per shard (static) or per plan
  /// point (lease; a point is charged whenever a lease holding it dies).
  std::size_t retries = 1;
  /// Delay between polls of the worker fleet. The plan probe is polled
  /// with a backoff from 1 ms up to this.
  double poll_seconds = 0.05;
  /// Kill a worker whose beat sequence has not advanced for this long
  /// (0 = disabled). With append_worker_flags the command is a --worker
  /// driver, which writes its first beat at startup — so a worker with
  /// no beat at all this long after spawn counts as stalled too. Custom
  /// commands (append_worker_flags == false) are only supervised once
  /// they emit a beat.
  double stall_timeout_seconds = 0.0;
  bool append_worker_flags = true;
  /// Probe the driver with `--emit-plan` before scheduling, to learn the
  /// plan size (skip empty shards/leases) and per-point costs (lease
  /// batching). Static mode degrades gracefully without a probe; lease
  /// mode requires one. Only attempted when append_worker_flags is set
  /// — a custom command has no probe contract.
  bool probe_plan = true;
  /// Lease mode: target number of batches (0 = auto, a few per worker
  /// slot so early finishers keep pulling work). Clamped to the plan.
  std::size_t lease_batches = 0;
  /// Lease mode: use measured per-point run times from the store's
  /// sidecar (via the probe) for batch sizing; false = uniform costs.
  bool use_measured_costs = true;
};

/// One worker process's lifetime, as recorded in the manifest. In lease
/// mode `shard` is the worker slot and `attempt` its respawn ordinal.
struct ShardAttempt {
  std::size_t shard = 0;
  std::size_t attempt = 0;  // 0 = first try
  ExitStatus status;
  double wall_seconds = 0.0;
  /// Last beat counter observed from the worker's heartbeat file (0 when
  /// the worker emitted none, e.g. non---worker test commands).
  std::uint64_t heartbeats = 0;
  /// Engine runs the worker reported via its store's .meta sidecar;
  /// SIZE_MAX when no sidecar appeared (crashed before finishing, or a
  /// lease worker — those report executed counts per lease instead).
  std::size_t executed = SIZE_MAX;
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

/// Per-worker-slot load-balance accounting (lease mode).
struct WorkerStat {
  std::size_t worker = 0;
  /// Wall time with at least one lease of this slot running: the union
  /// of its acknowledged leases' intervals (overlapping leases count
  /// once), each ending when its ack was seen and lasting the worker's
  /// reported wall-clock.
  double busy_seconds = 0.0;
  std::size_t batches = 0;
  std::size_t points = 0;
  std::size_t respawns = 0;  // crash/stall recoveries on this slot
  /// Batches this slot ran beyond an even share — work it pulled that a
  /// static partition would have left queued behind a slower worker.
  std::size_t steals = 0;
};

struct OrchestratorReport {
  bool success = false;
  Schedule schedule = Schedule::kStatic;
  std::vector<ShardAttempt> attempts;  // chronological retry log
  std::vector<std::size_t> missing_shards;  // exhausted their retry budget
  /// Lease mode: plan points whose per-point retry budget ran out.
  std::vector<std::size_t> missing_points;
  std::vector<LeaseLogEntry> leases;
  std::vector<WorkerStat> worker_stats;
  /// Shards/leases never spawned because the probed plan left them no
  /// points.
  std::size_t skipped_empty = 0;
  std::size_t plan_points = SIZE_MAX;  // SIZE_MAX = no probe answer
  std::string merged_path;
  std::size_t merged_records = 0;
  /// Total engine runs across successful shard attempts / acknowledged
  /// leases — 0 for a fully cached re-run of an already-merged sweep.
  std::size_t engine_runs = 0;
  double wall_seconds = 0.0;
  std::string error;  // first fatal error (usage abort, merge conflict)
};

class SweepOrchestrator {
 public:
  /// Throws std::invalid_argument on an unusable configuration (empty
  /// command/results_dir/driver, zero shards or workers, lease mode
  /// without append_worker_flags).
  explicit SweepOrchestrator(OrchestratorOptions opts);

  /// Runs the sweep to completion, streaming progress lines to `log`.
  /// Failures are reported, not thrown: the report (and the manifest on
  /// disk) always describes what happened.
  OrchestratorReport run(std::ostream& log);

  /// <results_dir>/<driver>.manifest.tsv — where run() records the
  /// outcome.
  static std::string manifest_path(const std::string& results_dir,
                                   const std::string& driver);

  /// Reads the "executed" count from a store's .meta sidecar (written by
  /// ResultStoreFile::finish); SIZE_MAX when absent or malformed.
  static std::size_t read_meta_executed(const std::string& store_path);

 private:
  std::vector<std::string> shard_argv(std::size_t shard) const;
  std::vector<std::string> lease_argv(const std::string& lease_path) const;
  std::string lease_path(std::size_t slot) const;
  /// Runs the --emit-plan probe; nullopt when the command has no probe
  /// contract or the probe failed (`error` set on a usage rejection).
  std::optional<PlanInfo> probe_plan(std::ostream& log,
                                     std::string& error) const;
  void run_static(OrchestratorReport& report, std::ostream& log) const;
  void run_lease(OrchestratorReport& report, std::ostream& log) const;
  void finish_merge(OrchestratorReport& report,
                    const std::vector<ResultStore>& stores,
                    std::ostream& log) const;
  void write_manifest(const OrchestratorReport& report) const;

  OrchestratorOptions opts_;
};

}  // namespace am::measure
