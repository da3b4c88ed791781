#pragma once
// Which slice of a partitionable job this process owns.
//
// Two representations, one contract (every plan index executed exactly
// once across the fleet, under its original index and therefore its
// original seed):
//
//   * ShardRange — the static front-end: "--shard i/n" picks the fixed
//     round-robin slice {j : j ≡ i (mod n)} at spawn time. Parsed by
//     Cli::get_shard, expanded by ExperimentPlan::shard. Good for manual
//     runs; blind to per-point cost, so a sweep's wall-clock is pinned
//     to the unluckiest slice.
//   * WorkLease — the dynamic form: an explicit batch of plan indices a
//     scheduler (measure::SweepOrchestrator, measure::SweepDaemon) leases
//     to whichever worker frees up next. Produced by
//     ExperimentPlan::batches from a per-point cost model, costliest
//     batch first (see work_lease.hpp for the on-disk handoff).
#include <cstddef>
#include <cstdint>
#include <vector>

namespace am {

struct ShardRange {
  std::size_t index = 0;
  std::size_t count = 1;

  bool sharded() const { return count > 1; }
};

/// One leased batch of plan points. `points` are duplicate-free plan
/// indices in service order (costliest first); `id` identifies the lease
/// in the scheduler's manifest and in the worker handoff (re-issued
/// batches get fresh ids).
struct WorkLease {
  std::uint64_t id = 0;
  std::vector<std::size_t> points;
  /// Scheduler's cost estimate for the batch (relative units; 0 when no
  /// cost model was applied). Informational — never affects results.
  double cost = 0.0;

  bool empty() const { return points.empty(); }
};

}  // namespace am
