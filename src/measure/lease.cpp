#include "measure/lease.hpp"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/heartbeat.hpp"
#include "common/mutex.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"
#include "measure/worker_fleet.hpp"

namespace am::measure {

SchedulingFlags parse_scheduling_flags(const Cli& cli) {
  if (cli.has("shard"))
    throw std::invalid_argument(
        "--shard is retired: cut the plan with `amsweep slice --hosts N "
        "--out DIR -- <driver> [flags]`, then run each host's slice with "
        "--lease DIR/slice_<i>");
  SchedulingFlags flags;
  flags.lease_path = cli.get("lease", "");
  flags.emit_plan_path = cli.get("emit-plan", "");
  for (const auto* flag : {&flags.lease_path, &flags.emit_plan_path})
    if (*flag == "true")
      throw std::invalid_argument(
          "--lease/--emit-plan need a file path argument");
  if (!flags.lease_path.empty() && !flags.emit_plan_path.empty())
    throw std::invalid_argument(
        "--lease and --emit-plan are mutually exclusive");
  return flags;
}

int run_worker_entry(int argc, char** argv, const std::string& name,
                     const WorkerBody& body) {
  try {
    const Cli cli(argc, argv);
    const SchedulingFlags flags = parse_scheduling_flags(cli);
    const bool worker = cli.get_bool("worker", false);
    if (worker && flags.lease_path.empty())
      throw std::invalid_argument(
          "--worker requires --lease: workers are lease workers");
    const auto marker = cli.get("test-crash-marker", "");
    if (!marker.empty() && flags.emit_plan_path.empty() &&
        std::filesystem::remove(marker)) {
      std::fprintf(stderr, "%s: crash marker claimed, raising SIGKILL\n",
                   name.c_str());
      std::raise(SIGKILL);
    }
    std::optional<HeartbeatWriter> heartbeat;
    if (worker) heartbeat.emplace(lease_heartbeat_path(flags.lease_path));
    return body(cli, flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return kWorkerExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    return kWorkerExitRunFailed;
  }
}

ResultStoreFile open_store(const std::string& results_dir,
                           const std::string& driver,
                           const SchedulingFlags& flags) {
  if (!flags.lease_path.empty())
    return ResultStoreFile::for_lease(results_dir, driver, flags.lease_path);
  return ResultStoreFile(results_dir, driver);
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
  LeasePlan target;
  std::size_t points = 0;
  std::size_t remaining = 0;  // points not yet recorded
  std::size_t executed = 0;
  Clock::time_point taken;
};

}  // namespace

LeaseWorkerReport run_lease_worker(const LeaseResolver& resolve,
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

  const auto launch = [&](std::uint64_t lease, const LeasePlan& target,
                          std::size_t index) {
    auto task = [target, &mailbox, lease, index] {
      Finished f;
      f.lease = lease;
      f.index = index;
      try {
        f.run = target.runner->run_point(*target.plan, index);
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
        const ScenarioKey key = l.target.runner->key_for(*l.target.plan, index);
        if (cache.has(key)) {
          // A seeded hit joins the store: every point a lease settles is
          // in the store that acknowledges it.
          cache.adopt(key);
          --l.remaining;
          continue;
        }
        ++l.executed;
        launch(lease, l.target, index);
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
          // A done offer is the last: its points (a static slice from
          // `amsweep slice`) run and are acked, the shutdown itself gets
          // no ack — exit 0 is the receipt.
          draining = offer->done;
          if (!offer->done || !offer->lease.points.empty()) {
            const LeasePlan target = resolve(*offer);
            target.plan->check_points(offer->lease.points);
            OpenLease& l = open[offer->lease.id];
            l.target = target;
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
        OpenLease& l = open.at(f.lease);
        l.target.runner->record(*l.target.plan, f.index, f.run, host, cache);
        --l.remaining;
      }
    }
  } catch (...) {
    if (!error) error = std::current_exception();
  }
  // Pool tasks hold references into this frame: let them settle.
  while (running > 0) running -= mailbox.take(opts.poll_seconds).size();
  std::rethrow_exception(error);
}

LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts) {
  return run_lease_worker(
      [&](const LeaseOffer&) { return LeasePlan{&plan, &runner}; }, pool,
      store, lease_path, out, opts);
}

void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path) {
  PlanInfo info;
  info.points = plan.size();
  info.costs = runner.estimate_costs(plan, store);
  write_plan_info(path, info);
}

std::optional<ResultTable> execute_plan(const SchedulingFlags& flags,
                                        const ExperimentPlan& plan,
                                        const SweepRunner& runner,
                                        ResultStoreFile& store,
                                        ThreadPool* pool, std::ostream& out) {
  if (!flags.emit_plan_path.empty()) {
    emit_plan_info(plan, runner, store.store(), flags.emit_plan_path);
    out << "plan info: " << plan.size() << " point(s) -> "
        << flags.emit_plan_path << "\n";
    return std::nullopt;
  }
  if (!flags.lease_path.empty()) {
    const auto report =
        run_lease_worker(plan, runner, pool, store, flags.lease_path, out);
    store.finish(report.executed, report.points, out);
    return std::nullopt;
  }
  std::size_t executed = 0;
  auto table = runner.run(plan, pool, store.store(), {}, &executed);
  store.finish(executed, table.size(), out);
  return table;
}

}  // namespace am::measure
