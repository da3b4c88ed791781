#include "measure/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/line_doc.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

constexpr const char* kManifestHeader = "#am-sweep-manifest v1";

}  // namespace

SweepOrchestrator::SweepOrchestrator(OrchestratorOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.worker_command.empty())
    throw std::invalid_argument("orchestrator: empty worker command");
  if (opts_.results_dir.empty())
    throw std::invalid_argument("orchestrator: results_dir is required");
  if (opts_.driver.empty())
    throw std::invalid_argument("orchestrator: driver name is required");
  if (opts_.workers == 0)
    throw std::invalid_argument("orchestrator: workers must be positive");
}

std::string SweepOrchestrator::manifest_path(const std::string& results_dir,
                                             const std::string& driver) {
  return (std::filesystem::path(results_dir) / (driver + ".manifest.tsv"))
      .string();
}

std::optional<PlanInfo> SweepOrchestrator::probe_plan(
    std::string& error) const {
  const std::string plan_file =
      (std::filesystem::path(opts_.results_dir) /
       (opts_.driver + ".plan.tsv"))
          .string();
  std::error_code ec;
  std::filesystem::remove(plan_file, ec);  // stale from an earlier sweep

  auto argv = opts_.worker_command;
  argv.push_back("--results-dir");
  argv.push_back(opts_.results_dir);
  argv.push_back("--emit-plan");
  argv.push_back(plan_file);

  Subprocess probe;
  try {
    Subprocess::Options spawn_opts;
    spawn_opts.stdout_path = plan_file + ".log";
    spawn_opts.new_process_group = true;
    probe = Subprocess::spawn(argv, spawn_opts);
  } catch (const std::exception& e) {
    error = std::string("plan probe unspawnable: ") + e.what();
    return std::nullopt;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // The probe only builds the plan, usually in a few milliseconds: poll
  // with a backoff from 1 ms up to poll_seconds, so a sweep's first
  // worker is not held back by a full poll period.
  double wait = std::min(0.001, opts_.poll_seconds);
  while (probe.running()) {
    // The probe builds the plan but runs no experiments; a wedged probe
    // falls under the same stall policy as a wedged worker.
    if (opts_.stall_timeout_seconds > 0.0 &&
        seconds_since(t0) > opts_.stall_timeout_seconds) {
      probe.kill();
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    wait = std::min(wait * 2.0, opts_.poll_seconds);
  }
  // wait() returns the cached status once the child is reaped, so this
  // never blocks twice — and never dereferences an empty optional.
  const ExitStatus status = probe.wait();
  if (!status.success()) {
    // The probe is the first process to see the flags; a rejection here
    // is the same fail-fast any worker rejection triggers.
    error = std::string("plan probe ") +
            (!status.signaled && status.code == kWorkerExitUsage
                 ? "rejected its flags"
                 : "failed") +
            " (" + status.describe() + ") — see " + plan_file + ".log";
    return std::nullopt;
  }
  auto info = read_plan_info(plan_file);
  if (!info) error = "plan probe wrote no readable plan info to " + plan_file;
  return info;
}

std::optional<std::vector<std::string>> SweepOrchestrator::slice(
    std::size_t hosts, std::string& error) const {
  if (hosts == 0)
    throw std::invalid_argument("orchestrator: hosts must be positive");
  std::filesystem::create_directories(opts_.results_dir);
  const auto info = probe_plan(error);
  if (!info) return std::nullopt;
  std::vector<std::string> paths;
  for (WorkLease& lease :
       make_batches(info->points, hosts,
                    opts_.use_measured_costs ? info->costs
                                             : std::vector<double>{})) {
    paths.push_back((std::filesystem::path(opts_.results_dir) /
                     ("slice_" + std::to_string(lease.id)))
                        .string());
    LeaseOffer offer;
    offer.lease = std::move(lease);
    offer.done = true;
    write_lease_offer(paths.back(), offer);
  }
  return paths;
}

OrchestratorReport SweepOrchestrator::run(std::ostream& log) {
  const auto t0 = std::chrono::steady_clock::now();
  OrchestratorReport report;
  try {
    std::filesystem::create_directories(opts_.results_dir);
  } catch (const std::exception& e) {
    report.error = std::string("cannot create results dir: ") + e.what();
    log << report.error << "\n";
    report.wall_seconds = seconds_since(t0);
    return report;  // no manifest: the directory it lives in is the problem
  }

  run_lease(report, log);

  report.wall_seconds = seconds_since(t0);
  try {
    write_manifest(report);
    log << "manifest: " << manifest_path(opts_.results_dir, opts_.driver)
        << "\n";
  } catch (const std::exception& e) {
    // A full disk after a successful merge must not turn into a thrown
    // "usage" failure: the report (and merged store) still stand.
    if (report.error.empty())
      report.error = std::string("manifest write failed: ") + e.what();
    log << "manifest write failed: " << e.what() << "\n";
  }
  return report;
}

void SweepOrchestrator::finish_merge(OrchestratorReport& report,
                                     const std::vector<ResultStore>& stores,
                                     std::ostream& log) const {
  report.merged_path = store_path(opts_.results_dir, opts_.driver);
  try {
    // Seed from the existing canonical file: it may hold records from
    // earlier runs (other scales, other grids), and "stale records sit
    // idle in the store" is a documented contract — completing a sweep
    // must extend the cache, never replace it.
    ResultStore merged = ResultStore::load_or_empty(report.merged_path);
    for (const auto& store : stores) merged.merge(store);
    merged.save(report.merged_path);
    ResultStore::load(report.merged_path);  // validate what we wrote
    report.merged_records = merged.size();
    report.success = true;
    log << "merged " << stores.size() << " worker store(s) -> "
        << report.merged_path << " (" << report.merged_records
        << " records, " << report.engine_runs << " engine runs total)\n";
  } catch (const std::exception& e) {
    report.error = std::string("merge failed: ") + e.what();
    log << report.error << "\n";
  }
}

void SweepOrchestrator::run_lease(OrchestratorReport& report,
                                  std::ostream& log) const {
  // Everything the probe's answer sizes is built in here, so a point
  // count no plan could hold is a reported probe error too.
  LeaseBook book;
  try {
    if (const auto info = probe_plan(report.error)) {
      report.plan_points = info->points;
      book = LeaseBook(info->points);
      // A few batches per slot so early finishers keep pulling work;
      // large grids stay bounded by the plan itself. Slice order is
      // service order: costliest slice first.
      book.cut(opts_.lease_batches != 0 ? opts_.lease_batches
                                        : opts_.workers * 4,
               opts_.use_measured_costs ? info->costs : std::vector<double>{});
    }
  } catch (const std::exception& e) {
    report.error = std::string("plan probe answered an unschedulable plan: ") +
                   e.what();
  }
  if (!report.error.empty()) {
    log << report.error << "\n";
    return;
  }
  const std::size_t n = book.points();
  if (n == 0) {
    // Nothing to lease; the canonical store is already complete.
    log << "plan has 0 points: nothing to schedule\n";
    finish_merge(report, {}, log);
    return;
  }

  const std::size_t slots_n = std::min(opts_.workers, book.pending.size());
  log << "amsweep: " << opts_.driver << ", " << book.pending.size()
      << " leased batch(es) over " << n << " point(s) on " << slots_n
      << " worker slot(s), per-point retries " << opts_.retries << "\n";

  WorkerFleetOptions fleet_opts;
  for (std::size_t w = 0; w < slots_n; ++w)
    fleet_opts.lease_paths.push_back(
        (std::filesystem::path(opts_.results_dir) /
         (opts_.driver + ".lease" + std::to_string(w)))
            .string());
  fleet_opts.argv = [this](const std::string& lease_path) {
    auto argv = opts_.worker_command;
    argv.insert(argv.end(), {"--results-dir", opts_.results_dir, "--lease",
                             lease_path, "--worker"});
    return argv;
  };
  fleet_opts.stall_timeout_seconds = opts_.stall_timeout_seconds;
  WorkerFleet fleet(std::move(fleet_opts));

  // The policy: one longest-first queue (the book's), slots that close
  // once they find it empty, the attempt and lease logs, and the abort
  // of the whole sweep on a usage exit or an unspawnable command.
  std::vector<bool> closed(slots_n, false);  // no work left for the slot
  bool abort = false;
  FleetPolicy policy;
  policy.next = [&](std::size_t w, bool spawn) -> std::optional<OwnedOffer> {
    if (abort || closed[w]) return std::nullopt;
    if (book.pending.empty()) {
      // An idle slot that finds no work left closes for good; a batch a
      // later crash requeues goes to a live or not yet closed slot.
      closed[w] = spawn;
      return std::nullopt;
    }
    OwnedOffer next;
    next.offer.lease = book.take();
    return next;
  };
  policy.offered = [&](std::size_t w, const HeldLease& held) {
    report.leases.push_back(
        {held.lease.id, w, held.lease.points.size(), held.lease.cost});
  };
  policy.acked = [&](std::size_t, const HeldLease& held, const LeaseAck& ack) {
    book.ack(held.lease, ack.executed);
    report.engine_runs += ack.executed;
    for (auto& e : report.leases)
      if (e.id == ack.lease_id) {
        e.completed = true;
        e.executed = ack.executed;
        e.wall_seconds = ack.wall_seconds;
      }
  };
  policy.exited = [&](std::size_t w, const WorkerExit& exit) {
    report.attempts.push_back({w, fleet.stat(w).respawns, exit.status,
                               exit.wall_seconds, exit.heartbeats,
                               exit.stalled});
    if (!exit.status.signaled && exit.status.code == kWorkerExitUsage) {
      report.error = "worker " + std::to_string(w) + " rejected its flags (" +
                     exit.status.describe() + ") — see " +
                     fleet.lease_path(w) + ".log";
      log << report.error << "\n";
      abort = true;
    } else if (exit.drained) {
      closed[w] = true;
    } else {
      // Newest first, so the earliest lease ends up at the queue's
      // front. An idle exit holds nothing: the next pass respawns the
      // slot if work remains.
      for (auto h = exit.held.rbegin(); h != exit.held.rend(); ++h)
        book.requeue(h->lease, opts_.retries, w, log);
    }
  };
  policy.unspawnable = [&](std::size_t, std::uint64_t,
                           const std::string& why) {
    report.error = why;
    abort = true;
  };

  try {
    while (true) {
      const FleetPass pass = fleet.pass(policy, log);
      // Outstanding batches always sit on a live slot or in the queue
      // (a dead slot's batches went back to the queue), so these two
      // exhaust the termination condition.
      if (abort || (book.pending.empty() && !pass.any_live)) break;
      if (!pass.progressed)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.poll_seconds));
    }
  } catch (const std::exception& e) {
    // I/O failure in the lease handoff (unwritable offer, corrupt
    // store): reported, never thrown — the contract of run().
    if (report.error.empty()) report.error = e.what();
    log << "lease scheduling failed: " << e.what() << "\n";
    abort = true;
  }

  // Load-balance accounting: steals are batches a slot ran beyond an
  // even split of what actually completed.
  std::size_t total_batches = 0;
  for (std::size_t w = 0; w < slots_n; ++w)
    total_batches += report.worker_stats.emplace_back(fleet.stat(w)).batches;
  const std::size_t fair = (total_batches + slots_n - 1) / slots_n;
  for (WorkerStat& stat : report.worker_stats)
    stat.steals = stat.batches > fair ? stat.batches - fair : 0;

  for (std::size_t p = 0; p < n; ++p)
    if (!book.done[p]) report.missing_points.push_back(p);

  report.merged_path = store_path(opts_.results_dir, opts_.driver);
  if (!abort && report.missing_points.empty()) {
    std::vector<ResultStore> stores;
    try {
      for (std::size_t w = 0; w < slots_n; ++w)
        if (fleet.ever_spawned(w))
          stores.push_back(ResultStore::load_or_empty(
              lease_store_path(fleet.lease_path(w))));
      finish_merge(report, stores, log);
    } catch (const std::exception& e) {
      report.error = std::string("worker store unreadable: ") + e.what();
      log << report.error << "\n";
    }
  } else {
    log << "sweep failed; " << report.missing_points.size()
        << " point(s) incomplete\n";
  }
}

void SweepOrchestrator::write_manifest(
    const OrchestratorReport& report) const {
  std::string cmd;
  for (const auto& a : opts_.worker_command)
    cmd += (cmd.empty() ? "" : " ") + a;
  LineWriter doc(kManifestHeader);
  doc.row("host", interfere::HostIdentity::detect().fingerprint())
      .row("driver", opts_.driver)
      .row("command", one_line(cmd))
      .row("schedule", "lease")
      .row("workers", opts_.workers)
      .row("retries", opts_.retries);
  if (report.plan_points != SIZE_MAX)
    doc.row("plan_points", report.plan_points);
  doc.row("status", report.success ? "ok" : "failed");
  if (!report.error.empty()) doc.row("error", one_line(report.error));
  doc.row("merged", report.merged_path)
      .row("records", report.merged_records)
      .row("engine_runs", report.engine_runs)
      .row("wall_seconds", fmt_seconds(report.wall_seconds));
  for (const auto p : report.missing_points) doc.row("missing_point", p);
  // attempt <slot> <attempt> <status> <wall_s> <heartbeats>
  for (const auto& a : report.attempts)
    doc.row("attempt", a.shard, a.attempt,
            a.status.describe() + (a.stalled ? " [stalled]" : ""),
            fmt_seconds(a.wall_seconds), a.heartbeats);
  // lease <id> <slot> <points> <cost> <executed> <wall_s> <ok|requeued>
  for (const auto& l : report.leases)
    doc.row("lease", l.id, l.worker, l.points, fmt_seconds(l.cost),
            l.executed == SIZE_MAX ? std::string("-")
                                   : std::to_string(l.executed),
            fmt_seconds(l.wall_seconds), l.completed ? "ok" : "requeued");
  // worker <slot> <busy_s> <batches> <points> <respawns> <steals>
  for (const auto& ws : report.worker_stats)
    doc.row("worker", ws.worker, fmt_seconds(ws.busy_seconds), ws.batches,
            ws.points, ws.respawns, ws.steals);
  if (const auto balance = busy_max_over_mean(report.worker_stats);
      !balance.empty())
    doc.row("busy_max_over_mean", balance);
  doc.save(manifest_path(opts_.results_dir, opts_.driver), "orchestrator");
}

}  // namespace am::measure
