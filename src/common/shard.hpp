#pragma once
// Which points of a partitionable job a process owns. Either form keeps
// every plan index under its original index, and so its original seed.
//
//   * WorkLease — what every scheduler hands out: a batch of plan
//     indices cut by make_batches (common/work_lease.hpp), costliest
//     first. The orchestrator and the daemon lease batches to whichever
//     worker frees up next; `amsweep slice` writes one per host as a
//     static lease file.
//   * ShardRange — the round-robin slice ExperimentPlan::shard expands;
//     only SweepRunner::run's whole-plan overload still takes one.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace am {

struct ShardRange {
  std::size_t index = 0;
  std::size_t count = 1;
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
