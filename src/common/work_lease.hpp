#pragma once
// On-disk handoff for dynamic work-queue scheduling (see shard.hpp for
// the WorkLease type itself). Three tiny single-purpose file formats,
// all written atomically (common/atomic_file) so a reader ever sees a
// complete previous file or a complete new one, never a torn mix:
//
//   * Lease file — scheduler → worker. One per worker slot, rewritten
//     for every batch: the lease id, the plan indices to run, and a
//     `done` flag that tells the worker to exit cleanly once the queue
//     is drained. Workers poll it; a lease id they already took means
//     "no new work yet". The scheduler overwrites an offer only after
//     the worker took it (see `ready` below), so no offer is lost.
//   * Ack file (`<lease>.ack`) — worker → scheduler. Rewritten whole
//     on every change: one record per lease the worker acknowledged
//     since it started (the lease id, how many points it covered, how
//     many engine runs were actually executed — cache hits excluded —
//     and the wall-clock from taking the lease to its ack), plus an
//     optional `ready <id>` line: the worker has taken offer `id` and
//     has none of its points queued, so the scheduler may write the
//     next offer while the taken points still run. A file without
//     `ready` (a single record, as the daemon's worker writes it) asks
//     for a new offer only once the worker holds nothing. Records are
//     written after the worker has checkpointed its store.
//   * Plan-info file — driver → scheduler, from a `--emit-plan` probe
//     run: the plan size and a per-point relative cost estimate, which
//     is everything a scheduler needs to build size-aware batches for a
//     plan it cannot construct itself (only the driver knows the grid).
//
// All readers return nullopt for an absent or malformed file instead of
// throwing: polling loops treat both as "not there yet", and atomic
// writes make "malformed" unreachable short of manual editing.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/shard.hpp"

namespace am {

/// A lease file's full content: the batch plus the shutdown flag.
struct LeaseOffer {
  WorkLease lease;
  /// True = queue drained; the worker exits 0 without writing a further
  /// ack (the scheduler judges the shutdown by exit status, not by a
  /// receipt). A done offer carries no points.
  bool done = false;
  /// Multi-plan scheduling (measure::SweepDaemon): the serialized plan
  /// the batch's indices refer to, the store file the worker must
  /// record results into, and an optional read-only store to seed its
  /// cache from. All empty in the single-plan orchestrator handoff —
  /// there the worker already owns its plan and store paths; writers
  /// omit empty fields and legacy readers ignore unknown keys, so the
  /// two generations of lease files interoperate.
  std::string plan_path;
  std::string store_path;
  std::string seed_store_path;
};

/// A worker's receipt for one completed lease.
struct LeaseAck {
  std::uint64_t lease_id = 0;
  std::size_t points = 0;    // plan points the lease covered
  std::size_t executed = 0;  // engine runs actually performed (≤ points)
  double wall_seconds = 0.0;
};

/// An ack file's full content. The scheduler processes every record
/// whose lease it still holds open, so reading one record twice is
/// harmless.
struct LeaseAckFile {
  std::vector<LeaseAck> acks;  // in acknowledgement order
  /// The newest offer id the worker has taken with none of its points
  /// still queued; nullopt = offer again only when the worker holds no
  /// lease.
  std::optional<std::uint64_t> ready;
};

/// A probed plan: size and per-point relative cost (costs.size() ==
/// points; uniform 1.0 when the driver has no better estimate).
struct PlanInfo {
  std::size_t points = 0;
  std::vector<double> costs;
};

/// Splits `points` plan indices into `count` size-aware batches by
/// greedy LPT: points in descending cost order (ties by index) each
/// join the currently cheapest batch (ties by batch index). `costs` is
/// empty (uniform) or one finite non-negative entry per point — with
/// uniform costs the assignment degenerates to the round-robin shard
/// slices {i : i ≡ b (mod count)}, which is what keeps `--shard i/n` a
/// compatibility front-end of the same scheduler. Batches are disjoint,
/// cover [0, points) exactly, and list their indices ascending; batch
/// ids are the batch indices (schedulers re-issue under fresh lease
/// ids). Throws std::invalid_argument on count == 0 or a bad cost
/// vector. count > points leaves the high batches empty.
std::vector<WorkLease> make_batches(std::size_t points, std::size_t count,
                                    const std::vector<double>& costs = {});

/// Standard sidecar paths next to a lease file.
std::string lease_ack_path(const std::string& lease_path);
std::string lease_store_path(const std::string& lease_path);
std::string lease_heartbeat_path(const std::string& lease_path);

/// Atomic writers; throw std::runtime_error on I/O failure (the
/// scheduler must know its offer never reached the worker).
void write_lease_offer(const std::string& path, const LeaseOffer& offer);
void write_lease_acks(const std::string& path, const LeaseAckFile& file);
void write_plan_info(const std::string& path, const PlanInfo& info);

/// Readers: the parsed file, or nullopt when absent or malformed. An
/// ack file is malformed when a record field precedes every `lease`
/// line, `ready` repeats, or it holds neither a record nor `ready`.
std::optional<LeaseOffer> read_lease_offer(const std::string& path);
std::optional<LeaseAckFile> read_lease_acks(const std::string& path);
std::optional<PlanInfo> read_plan_info(const std::string& path);

}  // namespace am
