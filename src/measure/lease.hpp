#pragma once
// The worker half of dynamic work-queue scheduling — the one worker loop
// every scheduler drives (measure::WorkerFleet spawns it for both the
// orchestrator and the daemon).
//
// A lease worker is a driver started with `--lease <file>`: it pulls
// batches of plan points from its scheduler through the lease file until
// the scheduler says the queue is drained. A static slice cut by
// `amsweep slice` is the degenerate case: one done offer that holds its
// points, run to completion before the worker returns. Each offer is
// resolved to the plan and runner its indices refer to: a figure driver
// has exactly one plan, while `amsweepd --worker` resolves the offer's
// plan file (measure/daemon.hpp). Leases stream: the points of every taken lease
// join one FIFO, at most pool->size() of them run at once, and as soon
// as the FIFO is empty — every taken point running or done — the worker
// writes `ready <id>` to its ack file so the next offer arrives while
// the last points still run. Pool threads only simulate
// (SweepRunner::run_point); the calling thread alone resolves offers and
// does the cache lookups, records, checkpoints, saves and acks. A lease
// is acknowledged once its last point is recorded and the store is
// saved — durable results strictly before the receipt, so a crash
// between the two merely re-runs a fully cached batch. Determinism is
// untouched: leased points keep their plan indices (and so their seeds
// and store keys), making the merged store bit-identical to a serial run
// however the batches were scheduled.
//
// The probe half (`--emit-plan <file>`) writes the plan's size and
// per-point cost estimates for the scheduler, which cannot construct
// the plan itself — only the driver knows its grid.
//
// The driver half of the contract lives here too, once for every
// orchestratable driver: run_worker_entry (flags, heartbeat, crash
// marker, exit codes), open_store (which store an invocation fills) and
// execute_plan (which mode runs the plan).
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "common/work_lease.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/result_store.hpp"

namespace am::measure {

/// The scheduling-mode flags every orchestratable driver shares. At
/// most one of the two modes may be set; each fixes the invocation's
/// entire control flow.
struct SchedulingFlags {
  std::string lease_path;      // --lease FILE: lease worker (or a slice)
  std::string emit_plan_path;  // --emit-plan FILE: scheduler probe
};

/// Parses and validates --lease/--emit-plan in one audited place
/// (run_worker_entry, and ambench's own worker). Throws
/// std::invalid_argument when both modes are set, when a path flag
/// arrived value-less (a value-less "--lease" parses as the boolean
/// sentinel "true" — almost certainly a missing path, never a usable
/// file name), and for the retired --shard, naming `amsweep slice`.
SchedulingFlags parse_scheduling_flags(const Cli& cli);

/// A driver's main body under the worker contract.
using WorkerBody = std::function<int(const Cli&, const SchedulingFlags&)>;

/// The driver half of the worker contract of measure::SweepOrchestrator
/// and measure::SweepDaemon, the one entry every orchestratable driver's
/// main routes through. It parses the command line and its scheduling
/// flags, then runs `body` and returns its exit code, adding:
///
///   * `--worker` mode, which requires `--lease`: a heartbeat file next
///     to the lease file for the supervisor's liveness watch.
///   * `--test-crash-marker PATH` fault injection: the first invocation
///     to claim (atomically delete) the marker dies by SIGKILL before
///     any work, so kill/retry paths are testable deterministically.
///     Probes (`--emit-plan`) never claim it — the injection targets
///     workers.
///   * Exit codes: a std::invalid_argument (bad flags, plan or offer)
///     exits kWorkerExitUsage, which no retry can fix; any other
///     exception exits kWorkerExitRunFailed, which is retryable. Either
///     way the message goes to stderr prefixed by `name`, and no
///     exception reaches std::terminate's ambiguous SIGABRT.
int run_worker_entry(int argc, char** argv, const std::string& name,
                     const WorkerBody& body);

/// The store one driver invocation reads and fills: under `--lease` the
/// lease-bound store (ResultStoreFile::for_lease), otherwise the
/// canonical store of `driver`. Disabled when `results_dir` is empty and
/// no lease is set.
ResultStoreFile open_store(const std::string& results_dir,
                           const std::string& driver,
                           const SchedulingFlags& flags);

struct LeaseWorkerOptions {
  /// Delay between polls of the lease file while no fresh offer exists
  /// (a finished point wakes the worker at once). It bounds how long an
  /// offer waits to be taken, so it is short.
  double poll_seconds = 0.005;
  /// Give up (std::runtime_error, i.e. a retryable worker failure) when
  /// no point runs and no fresh offer arrives for this long — an
  /// orphaned worker whose scheduler died must not poll forever. 0
  /// disables.
  double idle_timeout_seconds = 600.0;
};

/// What one worker process did over its whole lease loop.
struct LeaseWorkerReport {
  std::size_t leases = 0;
  std::size_t points = 0;
  std::size_t executed = 0;  // engine runs (points minus cache hits)
};

/// The plan and runner a lease offer's indices refer to.
struct LeasePlan {
  const ExperimentPlan* plan = nullptr;
  const SweepRunner* runner = nullptr;
};

/// Resolves an offer to its LeasePlan, on the worker's calling thread,
/// once per offer as it is taken. The pointers must stay valid until
/// run_lease_worker returns. Throws std::invalid_argument for an offer
/// it cannot serve.
using LeaseResolver = std::function<LeasePlan(const LeaseOffer&)>;

/// Runs the lease-worker protocol to completion against the offer file
/// at `lease_path`, with pool->size() lanes (one, on the calling
/// thread, when `pool` is null). `store` must be lease-bound
/// (ResultStoreFile::for_lease on the same lease path) and is saved
/// before every ack; every resolved runner records into it. Progress
/// lines stream to `out`. A `done` offer is the last one taken: its own
/// points, if any (a static slice cut by `amsweep slice`), run and are
/// acked like any lease's, the open leases drain, then the function
/// returns — the shutdown itself gets no ack, the caller's exit 0 is
/// the receipt. Throws std::runtime_error on idle timeout,
/// std::invalid_argument on an offer the resolver rejects or one naming
/// out-of-range or repeated plan indices (scheduler and worker disagree
/// about the plan — a usage error, not retryable), and whatever a point
/// threw; points already in flight settle first.
LeaseWorkerReport run_lease_worker(const LeaseResolver& resolve,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts = {});

/// The single-plan form the figure drivers use: every offer resolves to
/// `plan` and `runner`.
LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts = {});

/// Writes the scheduler probe file for `plan`: plan size plus
/// SweepRunner::estimate_costs over `store` (nullptr = cost model only).
void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path);

/// Executes a plan under whichever scheduling mode `flags` asks for —
/// the one call every orchestratable driver makes instead of wiring the
/// modes itself:
///
///   * `--emit-plan FILE`: write the plan info (emit_plan_info) and stop.
///   * `--lease FILE`: run leased batches (run_lease_worker) until the
///     scheduler drains its queue, or until the points of a static
///     slice's single done offer are recorded.
///   * otherwise: the full cache-aware run.
///
/// Every mode but the probe persists `store` and reports its cache
/// economy on `out` (ResultStoreFile::finish). Returns the table only
/// for the full run; nullopt means the invocation's whole output is
/// store or plan files, and the driver should exit 0 without emitting
/// figures.
std::optional<ResultTable> execute_plan(const SchedulingFlags& flags,
                                        const ExperimentPlan& plan,
                                        const SweepRunner& runner,
                                        ResultStoreFile& store,
                                        ThreadPool* pool, std::ostream& out);

}  // namespace am::measure
