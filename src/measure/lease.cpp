#include "measure/lease.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

SchedulingFlags parse_scheduling_flags(const Cli& cli) {
  SchedulingFlags flags;
  flags.shard = cli.get_shard("shard");
  flags.lease_path = cli.get("lease", "");
  flags.emit_plan_path = cli.get("emit-plan", "");
  for (const auto* flag : {&flags.lease_path, &flags.emit_plan_path})
    if (*flag == "true")
      throw std::invalid_argument(
          "--lease/--emit-plan need a file path argument");
  const int modes = (flags.shard.sharded() ? 1 : 0) +
                    (!flags.lease_path.empty() ? 1 : 0) +
                    (!flags.emit_plan_path.empty() ? 1 : 0);
  if (modes > 1)
    throw std::invalid_argument(
        "--shard, --lease and --emit-plan are mutually exclusive");
  return flags;
}

namespace {

using Clock = std::chrono::steady_clock;

/// A point a pool thread finished simulating, on its way back to the
/// worker's calling thread — the only thread that touches the store.
struct Finished {
  std::uint64_t lease = 0;
  std::size_t index = 0;
  SweepRunner::PointRun run;
  std::exception_ptr error;
};

/// Hands finished points from pool threads to the calling thread.
class Mailbox {
 public:
  void post(Finished f) {
    const MutexLock lock(mutex_);
    done_.push_back(std::move(f));
    // Notified under the lock: once the caller sees this point it may
    // return and destroy the mailbox, so nothing here may follow the
    // unlock.
    cv_.notify_one();
  }

  /// Everything posted so far, waiting up to `seconds` for a first one.
  std::vector<Finished> take(double seconds) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    MutexLock lock(mutex_);
    while (done_.empty() && cv_.wait_until(lock.native(), deadline) !=
                                std::cv_status::timeout) {
    }
    return std::exchange(done_, {});
  }

 private:
  Mutex mutex_;
  std::condition_variable cv_;
  std::vector<Finished> done_ AM_GUARDED_BY(mutex_);
};

/// A taken lease that is not acknowledged yet.
struct OpenLease {
  std::size_t points = 0;
  std::size_t remaining = 0;  // points not yet recorded
  std::size_t executed = 0;
  Clock::time_point taken;
};

}  // namespace

LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts) {
  if (store.store() == nullptr)
    throw std::invalid_argument(
        "lease worker: a result store is required — leased results only "
        "exist as store records");
  ResultStore& cache = *store.store();
  const std::string ack_path = lease_ack_path(lease_path);
  const std::size_t lanes = pool != nullptr ? pool->size() : 1;

  LeaseWorkerReport report;
  LeaseAckFile acks;  // the ack file's content
  std::map<std::uint64_t, OpenLease> open;
  // Points of every taken lease not yet handed to a lane: (lease, index).
  std::deque<std::pair<std::uint64_t, std::size_t>> queued;
  std::optional<std::uint64_t> taken;  // the newest offer id taken
  std::string host;  // fingerprint for fresh records, probed once
  Mailbox mailbox;
  std::size_t running = 0;
  bool draining = false;  // a done offer arrived
  std::exception_ptr error;
  // Last time anything happened: an offer arrived or a point was
  // running. Only genuine waiting counts against the idle timeout.
  auto last_activity = Clock::now();

  const auto launch = [&](std::uint64_t lease, std::size_t index) {
    auto task = [&runner, &plan, &mailbox, lease, index] {
      Finished f;
      f.lease = lease;
      f.index = index;
      try {
        f.run = runner.run_point(plan, index);
      } catch (...) {
        f.error = std::current_exception();
      }
      mailbox.post(std::move(f));
    };
    ++running;
    if (pool != nullptr)
      pool->submit(std::move(task));
    else
      task();
  };

  try {
    for (;;) {
      // Fill the lanes. A cache hit settles its point on the spot.
      while (!error && running < lanes && !queued.empty()) {
        const auto [lease, index] = queued.front();
        queued.pop_front();
        OpenLease& l = open.at(lease);
        if (cache.find(runner.key_for(plan, index)) != nullptr) {
          --l.remaining;
          continue;
        }
        ++l.executed;
        launch(lease, index);
      }

      bool changed = false;
      if (!error) {
        // Acknowledge finished leases: durable results strictly before
        // the receipt, so a crash in between only re-runs cache hits.
        bool saved = false;
        for (auto it = open.begin(); it != open.end();) {
          if (it->second.remaining > 0) {
            ++it;
            continue;
          }
          if (!saved) store.save();
          saved = true;
          LeaseAck ack;
          ack.lease_id = it->first;
          ack.points = it->second.points;
          ack.executed = it->second.executed;
          ack.wall_seconds =
              std::chrono::duration<double>(Clock::now() - it->second.taken)
                  .count();
          acks.acks.push_back(ack);
          report.leases += 1;
          report.points += ack.points;
          report.executed += ack.executed;
          out << "lease " << ack.lease_id << ": " << ack.points
              << " point(s), " << ack.executed << " engine run(s)\n";
          it = open.erase(it);
          changed = true;
        }
        // Every taken point is running or done: ask for the next offer
        // now, so the lanes never drain on a lease boundary.
        if (queued.empty() && taken && !draining && acks.ready != taken) {
          acks.ready = taken;
          changed = true;
        }
      }
      if (changed) write_lease_acks(ack_path, acks);

      if (error) {
        if (running == 0) break;
      } else if (draining && open.empty()) {
        out << "lease queue drained: " << report.leases << " lease(s), "
            << report.points << " point(s), " << report.executed
            << " engine run(s)\n";
        return report;
      } else if (!draining && queued.empty()) {
        const auto offer = read_lease_offer(lease_path);
        if (offer && offer->lease.id != taken) {
          last_activity = Clock::now();
          taken = offer->lease.id;
          if (offer->done) {
            draining = true;  // gets no ack: exit 0 is the receipt
          } else {
            plan.check_points(offer->lease.points);
            OpenLease& l = open[offer->lease.id];
            l.points = l.remaining = offer->lease.points.size();
            l.taken = Clock::now();
            for (const std::size_t p : offer->lease.points)
              queued.emplace_back(offer->lease.id, p);
          }
          continue;
        }
      }

      if (running > 0)
        last_activity = Clock::now();
      else if (opts.idle_timeout_seconds > 0.0 &&
               std::chrono::duration<double>(Clock::now() - last_activity)
                       .count() > opts.idle_timeout_seconds)
        throw std::runtime_error(
            "lease worker: no offer for " +
            std::to_string(opts.idle_timeout_seconds) +
            " s — scheduler gone?");

      for (Finished& f : mailbox.take(opts.poll_seconds)) {
        --running;
        if (f.error) {
          if (!error) error = f.error;
          continue;
        }
        if (host.empty())
          host = interfere::HostIdentity::detect().fingerprint();
        runner.record(plan, f.index, f.run, host, cache);
        --open.at(f.lease).remaining;
      }
    }
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  // Pool tasks hold references into this frame: let them settle.
  while (running > 0) running -= mailbox.take(opts.poll_seconds).size();
  std::rethrow_exception(error);
}

void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path) {
  PlanInfo info;
  info.points = plan.size();
  info.costs = runner.estimate_costs(plan, store);
  write_plan_info(path, info);
}

}  // namespace am::measure
