#pragma once
// On-disk handoff for dynamic work-queue scheduling (see shard.hpp for
// the WorkLease type itself). Three tiny single-purpose line documents
// (common/line_doc), all written atomically (common/atomic_file) so a
// reader ever sees a complete previous file or a complete new one,
// never a torn mix:
//
//   * Lease file — scheduler → worker. One per worker slot, rewritten
//     for every batch: the lease id, the plan indices to run (plus, for
//     the daemon, the plan file they index), and a `done` flag that
//     tells the worker to exit cleanly once the queue is drained. A
//     static slice (`amsweep slice`) is a lease file written once, with
//     `done` set and the host's points in it.
//     Workers poll it; a lease id they already took means "no new work
//     yet". The scheduler overwrites an offer only after the worker
//     took it (see `ready` below), so no offer is lost.
//   * Ack file (`<lease>.ack`) — worker → scheduler. Rewritten whole
//     on every change: one record per lease the worker acknowledged
//     since it started (the lease id, how many points it covered, how
//     many engine runs were actually executed — cache hits excluded —
//     and the wall-clock from taking the lease to its ack), plus an
//     optional `ready <id>` line: the worker has taken offer `id` and
//     has none of its points queued, so the scheduler may write the
//     next offer while the taken points still run. A file without
//     `ready` asks for a new offer only once the worker holds nothing.
//     Records are written after the worker has checkpointed its store.
//   * Plan-info file — driver → scheduler, from a `--emit-plan` probe
//     run: the plan size and a per-point relative cost estimate, which
//     is everything a scheduler needs to build cost-ordered batches for a
//     plan it cannot construct itself (only the driver knows the grid).
//
// All readers return nullopt for an absent or malformed file instead of
// throwing: polling loops treat both as "not there yet", and atomic
// writes make "malformed" unreachable short of manual editing. They
// ignore unknown keys and split fields at tabs only.
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
  /// True = the last offer: the worker runs and acks its points, if any
  /// (an `amsweep slice` slice has them; a drained scheduler's done
  /// offer has none), drains, and exits 0 — no ack for the shutdown
  /// itself, whose receipt is the exit status.
  bool done = false;
  /// Multi-plan scheduling (measure::SweepDaemon): the serialized plan
  /// the batch's indices refer to, and an optional read-only store to
  /// seed the worker's cache from. Both empty in the single-plan
  /// orchestrator handoff — there the worker already owns its plan;
  /// writers omit empty fields and readers ignore unknown keys.
  std::string plan_path;
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

/// Splits `points` plan indices into `count` cost-ordered slices: the
/// indices sorted by descending cost (ties by index) and cut into
/// contiguous slices whose sizes differ by at most one. `costs` is empty
/// (uniform) or one finite non-negative entry per point. Slice 0 holds
/// the costliest points and is served first; each slice lists its
/// points in that order, so a worker's FIFO starts its heaviest point
/// first. Batches are disjoint and cover [0, points) exactly; batch ids
/// are the batch indices (schedulers re-issue under fresh lease ids) and
/// `cost` is the slice's summed cost (uniform: its size). Throws
/// std::invalid_argument on count == 0 or a bad cost vector. count >
/// points leaves the high batches empty.
std::vector<WorkLease> make_batches(std::size_t points, std::size_t count,
                                    const std::vector<double>& costs = {});

/// Standard sidecar paths next to a lease file.
std::string lease_ack_path(const std::string& lease_path);
std::string lease_store_path(const std::string& lease_path);
std::string lease_heartbeat_path(const std::string& lease_path);

/// Atomic writers; throw std::runtime_error on I/O failure (the
/// scheduler must know its offer never reached the worker) and
/// std::invalid_argument on a path holding a tab, CR or newline.
void write_lease_offer(const std::string& path, const LeaseOffer& offer);
void write_lease_acks(const std::string& path, const LeaseAckFile& file);
void write_plan_info(const std::string& path, const PlanInfo& info);

/// Readers: the parsed file, or nullopt when absent or malformed. An
/// ack file is malformed when a record field precedes every `lease`
/// line, `ready` repeats, or it holds neither a record nor `ready`; a
/// plan-info file when `points` repeats, its cost lines do not number
/// each point once in index order after it (a count no line backs is
/// never allocated), or a cost is negative or not finite (make_batches
/// could not order it).
std::optional<LeaseOffer> read_lease_offer(const std::string& path);
std::optional<LeaseAckFile> read_lease_acks(const std::string& path);
std::optional<PlanInfo> read_plan_info(const std::string& path);

}  // namespace am
