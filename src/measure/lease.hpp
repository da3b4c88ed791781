#pragma once
// The worker half of dynamic work-queue scheduling.
//
// A lease worker is a figure driver started with `--lease <file>`
// instead of `--shard i/n`: rather than owning a fixed slice chosen at
// spawn, it pulls batches of plan points from its scheduler
// (measure::SweepOrchestrator) through the lease file until the
// scheduler says the queue is drained. Leases stream: the points of
// every taken lease join one FIFO, at most pool->size() of them run at
// once, and as soon as the FIFO is empty — every taken point running or
// done — the worker writes `ready <id>` to its ack file so the next
// offer arrives while the last points still run. Pool threads only
// simulate (SweepRunner::run_point); the calling thread alone does the
// cache lookups, records, checkpoints, saves and acks. A lease is
// acknowledged once its last point is recorded and the store is saved
// — durable results strictly before the receipt, so a crash between the
// two merely re-runs a fully cached batch. Determinism is untouched:
// leased points keep their plan indices (and so their seeds and store
// keys), making the merged store bit-identical to a serial run however
// the batches were scheduled.
//
// The probe half (`--emit-plan <file>`) writes the plan's size and
// per-point cost estimates for the scheduler, which cannot construct
// the plan itself — only the driver knows its grid.
#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/result_store.hpp"

namespace am::measure {

/// The scheduling-mode flags every orchestratable driver shares. At
/// most one of the three modes may be set; each fixes the invocation's
/// entire control flow.
struct SchedulingFlags {
  ShardRange shard;            // --shard i/n: static slice
  std::string lease_path;      // --lease FILE: dynamic lease worker
  std::string emit_plan_path;  // --emit-plan FILE: scheduler probe
};

/// Parses and validates --shard/--lease/--emit-plan in one audited
/// place (bench_util's make_context and the orchestratable examples all
/// share this contract). Throws std::invalid_argument when modes are
/// combined or a path flag arrived value-less (a value-less "--lease"
/// parses as the boolean sentinel "true" — almost certainly a missing
/// path, never a usable file name).
SchedulingFlags parse_scheduling_flags(const Cli& cli);

struct LeaseWorkerOptions {
  /// Delay between polls of the lease file while no fresh offer exists
  /// (a finished point wakes the worker at once).
  double poll_seconds = 0.02;
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

/// Runs the lease-worker protocol to completion against the offer file
/// at `lease_path`, with pool->size() lanes (one, on the calling
/// thread, when `pool` is null). `store` must be lease-bound
/// (ResultStoreFile::for_lease on the same lease path) and is saved
/// before every ack; progress lines stream to `out`. A `done` offer
/// (which gets no ack — the caller's exit 0 is the receipt) drains the
/// open leases, then the function returns. Throws std::runtime_error on
/// idle timeout, std::invalid_argument on a lease naming out-of-range
/// or repeated plan indices (scheduler and worker disagree about the
/// plan — a usage error, not retryable), and whatever a point threw;
/// points already in flight settle first.
LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts = {});

/// Writes the scheduler probe file for `plan`: plan size plus
/// SweepRunner::estimate_costs over `store` (nullptr = heuristic only).
void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path);

}  // namespace am::measure
