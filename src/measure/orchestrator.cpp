#include "measure/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/heartbeat.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

/// Supervision state shared by both scheduling modes: beat-sequence
/// progress, judged against the orchestrator's own steady clock. File
/// timestamps never enter the decision — an NTP step on the host must
/// be unable to fake a stall or mask one.
struct BeatWatch {
  std::uint64_t last_beats = 0;
  Clock::time_point last_progress;

  void observe(const std::string& hb_path) {
    if (const auto hb = read_heartbeat(hb_path))
      if (hb->beats > last_beats) {
        last_beats = hb->beats;
        last_progress = Clock::now();
      }
  }

  /// True when the worker should be presumed wedged. `spawn` anchors the
  /// never-beat case; `expect_first_beat` is append_worker_flags — only
  /// commands we appended --worker to promise a beat at startup.
  bool stalled(double timeout, Clock::time_point spawn,
               bool expect_first_beat) const {
    if (timeout <= 0.0) return false;
    if (last_beats > 0) return seconds_since(last_progress) > timeout;
    return expect_first_beat && seconds_since(spawn) > timeout;
  }

  std::string describe(Clock::time_point spawn) const {
    if (last_beats > 0)
      return "heartbeat stuck at beat " + std::to_string(last_beats) +
             " for " + fmt_seconds(seconds_since(last_progress)) + " s";
    return "no heartbeat " + fmt_seconds(seconds_since(spawn)) +
           " s after spawn";
  }
};

/// One live worker process of the static scheduler.
struct Running {
  Subprocess proc;
  std::size_t shard = 0;
  std::size_t attempt = 0;
  Clock::time_point start;
  BeatWatch watch;
  bool stalled = false;
};

using Span = std::pair<Clock::time_point, Clock::time_point>;

/// Seconds covered by the union of `spans`: overlapping leases of one
/// worker count once.
double covered_seconds(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  Clock::time_point reach = Clock::time_point::min();
  for (const auto& [from, to] : spans) {
    const auto start = std::max(from, reach);
    if (to <= start) continue;
    total += std::chrono::duration<double>(to - start).count();
    reach = to;
  }
  return total;
}

/// One worker slot of the lease scheduler. A slot's process may be
/// respawned after a crash; its store file persists across respawns, so
/// re-offered batches are mostly cache hits.
struct Slot {
  Subprocess proc;
  bool live = false;
  bool closed = false;       // no work left for this slot, process gone
  bool ever_spawned = false;
  bool done_offered = false;
  std::string lease;         // lease-file path
  std::vector<WorkLease> held;  // offered, not yet acknowledged
  std::uint64_t last_offered = 0;
  /// Acknowledged leases as [ack seen − ack wall, ack seen], never
  /// before their worker's spawn; their union is the slot's busy time.
  std::vector<Span> busy;
  Clock::time_point start;
  BeatWatch watch;
  bool stalled = false;
  WorkerStat stat;
};

}  // namespace

SweepOrchestrator::SweepOrchestrator(OrchestratorOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.worker_command.empty())
    throw std::invalid_argument("orchestrator: empty worker command");
  if (opts_.results_dir.empty())
    throw std::invalid_argument("orchestrator: results_dir is required");
  if (opts_.driver.empty())
    throw std::invalid_argument("orchestrator: driver name is required");
  if (opts_.shards == 0 || opts_.workers == 0)
    throw std::invalid_argument(
        "orchestrator: shards and workers must be positive");
  if (opts_.schedule == Schedule::kLease && !opts_.append_worker_flags)
    throw std::invalid_argument(
        "orchestrator: lease scheduling requires the appended worker "
        "contract (--lease/--emit-plan); custom commands must use static "
        "shards");
}

std::string SweepOrchestrator::manifest_path(const std::string& results_dir,
                                             const std::string& driver) {
  return (std::filesystem::path(results_dir) / (driver + ".manifest.tsv"))
      .string();
}

std::size_t SweepOrchestrator::read_meta_executed(
    const std::string& store_path) {
  std::ifstream in(store_path + ".meta");
  if (!in) return SIZE_MAX;
  std::string key;
  std::size_t value = 0;
  while (in >> key >> value)
    if (key == "executed") return value;
  return SIZE_MAX;
}

std::vector<std::string> SweepOrchestrator::shard_argv(
    std::size_t shard) const {
  auto argv = opts_.worker_command;
  if (opts_.append_worker_flags) {
    argv.push_back("--results-dir");
    argv.push_back(opts_.results_dir);
    argv.push_back("--shard");
    argv.push_back(std::to_string(shard) + "/" +
                   std::to_string(opts_.shards));
    argv.push_back("--worker");
  }
  return argv;
}

std::vector<std::string> SweepOrchestrator::lease_argv(
    const std::string& lease_path) const {
  auto argv = opts_.worker_command;
  argv.push_back("--results-dir");
  argv.push_back(opts_.results_dir);
  argv.push_back("--lease");
  argv.push_back(lease_path);
  argv.push_back("--worker");
  return argv;
}

std::string SweepOrchestrator::lease_path(std::size_t slot) const {
  return (std::filesystem::path(opts_.results_dir) /
          (opts_.driver + ".lease" + std::to_string(slot)))
      .string();
}

std::optional<PlanInfo> SweepOrchestrator::probe_plan(
    std::ostream& log, std::string& error) const {
  if (!opts_.append_worker_flags || !opts_.probe_plan) return std::nullopt;
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
  const auto t0 = Clock::now();
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
  if (!status.signaled && status.code == kWorkerExitUsage) {
    // The probe is the first process to see the flags; a rejection here
    // is the same fail-fast any worker rejection triggers.
    error = "plan probe rejected its flags (" + status.describe() +
            ") — see " + plan_file + ".log";
    return std::nullopt;
  }
  if (!status.success()) {
    log << "plan probe failed (" << status.describe()
        << ") — scheduling without plan info\n";
    return std::nullopt;
  }
  auto info = read_plan_info(plan_file);
  if (!info)
    log << "plan probe wrote no readable plan info — scheduling without "
           "it\n";
  return info;
}

OrchestratorReport SweepOrchestrator::run(std::ostream& log) {
  const auto t0 = Clock::now();
  OrchestratorReport report;
  report.schedule = opts_.schedule;
  try {
    std::filesystem::create_directories(opts_.results_dir);
  } catch (const std::exception& e) {
    report.error = std::string("cannot create results dir: ") + e.what();
    log << report.error << "\n";
    report.wall_seconds = seconds_since(t0);
    return report;  // no manifest: the directory it lives in is the problem
  }

  if (opts_.schedule == Schedule::kLease)
    run_lease(report, log);
  else
    run_static(report, log);

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

void SweepOrchestrator::run_static(OrchestratorReport& report,
                                   std::ostream& log) const {
  const auto shard_store = [&](std::size_t i) {
    return store_path(opts_.results_dir, opts_.driver, {i, opts_.shards});
  };
  const auto shard_label = [&](std::size_t i) {
    return "shard " + std::to_string(i) + "/" + std::to_string(opts_.shards);
  };

  // Optional probe: knowing the plan size means round-robin slices with
  // index >= size are provably empty — never fork, supervise, and merge
  // a no-op worker for them.
  std::string probe_error;
  std::size_t scheduled = opts_.shards;
  if (const auto info = probe_plan(log, probe_error)) {
    report.plan_points = info->points;
    scheduled = std::min(opts_.shards, info->points);
    report.skipped_empty = opts_.shards - scheduled;
    if (report.skipped_empty > 0)
      log << "plan has " << info->points << " point(s): skipping "
          << report.skipped_empty << " empty shard(s)\n";
  } else if (!probe_error.empty()) {
    report.error = probe_error;
    log << report.error << "\n";
    for (std::size_t i = 0; i < opts_.shards; ++i)
      report.missing_shards.push_back(i);
    return;
  }

  log << "amsweep: " << opts_.driver << ", " << scheduled << " shard(s) on "
      << opts_.workers << " worker slot(s), retries " << opts_.retries
      << "\n";

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < scheduled; ++i) pending.push_back(i);
  std::vector<std::size_t> attempts_used(opts_.shards, 0);
  // Each successful shard's store, kept from its exit-time validation
  // load so the final merge doesn't parse every file a second time.
  std::vector<ResultStore> shard_stores(opts_.shards);
  std::vector<Running> running;
  bool abort = false;  // usage failure: stop launching, fail the sweep

  while (!pending.empty() || !running.empty()) {
    // Fill free worker slots.
    while (!abort && running.size() < opts_.workers && !pending.empty()) {
      const std::size_t shard = pending.front();
      pending.pop_front();
      Running r;
      r.shard = shard;
      r.attempt = attempts_used[shard]++;
      r.start = Clock::now();
      r.watch.last_progress = r.start;
      const auto store = shard_store(shard);
      std::error_code ec;
      std::filesystem::remove(store + ".hb", ec);  // stale from a crash
      try {
        Subprocess::Options spawn_opts;
        spawn_opts.stdout_path = store + ".log";  // stderr shares it
        // Own process group: killing a stalled worker must also take out
        // any grandchildren (wrapper-script workers), or an orphan would
        // keep writing this shard's store while the retry runs.
        spawn_opts.new_process_group = true;
        r.proc = Subprocess::spawn(shard_argv(shard), spawn_opts);
      } catch (const std::exception& e) {
        // Unspawnable command: no retry can fix a missing binary.
        report.error = e.what();
        log << shard_label(shard) << ": " << e.what() << "\n";
        abort = true;
        break;
      }
      log << shard_label(shard) << ": attempt " << r.attempt
          << " launched (pid " << r.proc.pid() << ")\n";
      running.push_back(std::move(r));
    }
    if (abort && running.empty()) break;

    // Poll the fleet: heartbeats first (liveness), then exits.
    bool progressed = false;
    for (auto it = running.begin(); it != running.end();) {
      auto& r = *it;
      const auto store = shard_store(r.shard);
      r.watch.observe(store + ".hb");
      if (!r.stalled &&
          r.watch.stalled(opts_.stall_timeout_seconds, r.start,
                          opts_.append_worker_flags)) {
        log << shard_label(r.shard) << ": " << r.watch.describe(r.start)
            << " — killing pid " << r.proc.pid() << "\n";
        r.stalled = true;
        r.proc.kill();
      }
      if (r.proc.running()) {
        ++it;
        continue;
      }
      progressed = true;

      ShardAttempt attempt;
      attempt.shard = r.shard;
      attempt.attempt = r.attempt;
      attempt.status = r.proc.wait();  // already reaped; returns the cache
      attempt.wall_seconds = seconds_since(r.start);
      attempt.heartbeats = r.watch.last_beats;
      attempt.stalled = r.stalled;

      bool ok = attempt.status.success();
      std::string why = attempt.status.describe();
      if (ok) {
        // A successful worker must have left a loadable shard store; a
        // missing or corrupt one is a failure no exit code admitted to.
        try {
          shard_stores[r.shard] = ResultStore::load(store);
          attempt.executed = read_meta_executed(store);
          if (attempt.executed != SIZE_MAX)
            report.engine_runs += attempt.executed;
        } catch (const std::exception& e) {
          ok = false;
          why = std::string("store invalid after exit 0: ") + e.what();
        }
      }

      if (ok) {
        log << shard_label(r.shard) << ": done in "
            << fmt_seconds(attempt.wall_seconds) << " s ("
            << (attempt.executed == SIZE_MAX
                    ? std::string("?")
                    : std::to_string(attempt.executed))
            << " engine runs, " << attempt.heartbeats << " heartbeats)\n";
      } else if (!attempt.status.signaled &&
                 attempt.status.code == kWorkerExitUsage) {
        // The worker rejected its flags; every shard gets the same flags.
        report.error = shard_label(r.shard) + " rejected its flags (" + why +
                       ") — see " + store + ".log";
        log << report.error << "\n";
        abort = true;
      } else if (attempts_used[r.shard] <= opts_.retries) {
        log << shard_label(r.shard) << ": " << why << " in "
            << fmt_seconds(attempt.wall_seconds) << " s — retrying (attempt "
            << attempts_used[r.shard] << "/" << opts_.retries << ")\n";
        pending.push_back(r.shard);
      } else {
        log << shard_label(r.shard) << ": " << why
            << " — retry budget exhausted\n";
        report.missing_shards.push_back(r.shard);
      }
      report.attempts.push_back(std::move(attempt));
      it = running.erase(it);
    }
    if (abort) {
      // Kill whatever is still running; their shards join the missing set.
      for (auto& r : running) {
        r.proc.kill();
        r.proc.wait();
        log << shard_label(r.shard) << ": killed after abort\n";
      }
      running.clear();
      break;
    }
    if (!progressed && (!running.empty() || !pending.empty()))
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.poll_seconds));
  }

  if (abort) {
    // Every scheduled shard without a successful attempt is missing.
    std::vector<bool> done(opts_.shards, false);
    for (const auto& a : report.attempts)
      if (a.status.success()) done[a.shard] = true;
    report.missing_shards.clear();
    for (std::size_t i = 0; i < scheduled; ++i)
      if (!done[i]) report.missing_shards.push_back(i);
  }

  report.merged_path = store_path(opts_.results_dir, opts_.driver);
  if (report.missing_shards.empty() && !abort) {
    shard_stores.resize(scheduled);  // skipped empty shards have no store
    finish_merge(report, shard_stores, log);
  } else {
    log << "sweep failed; missing shard(s):";
    for (const auto s : report.missing_shards) log << " " << s;
    log << "\n";
  }
}

void SweepOrchestrator::run_lease(OrchestratorReport& report,
                                  std::ostream& log) const {
  std::string probe_error;
  const auto info = probe_plan(log, probe_error);
  if (!info) {
    report.error = !probe_error.empty()
                       ? probe_error
                       : "lease scheduling requires a successful "
                         "--emit-plan probe";
    log << report.error << "\n";
    return;
  }
  report.plan_points = info->points;
  const std::size_t n = info->points;
  if (n == 0) {
    // Nothing to lease; the canonical store is already complete.
    log << "plan has 0 points: nothing to schedule\n";
    finish_merge(report, {}, log);
    return;
  }

  // A few batches per slot so early finishers keep pulling work; large
  // grids stay bounded by the plan itself.
  std::size_t target = opts_.lease_batches != 0 ? opts_.lease_batches
                                                : opts_.workers * 4;
  target = std::min(std::max<std::size_t>(target, 1), n);
  const std::vector<double> costs =
      opts_.use_measured_costs ? info->costs : std::vector<double>{};
  auto batches = make_batches(n, target, costs);
  // Serve heaviest batches first (LPT service order) and drop empties.
  std::stable_sort(batches.begin(), batches.end(),
                   [](const WorkLease& a, const WorkLease& b) {
                     return a.cost > b.cost;
                   });
  std::deque<WorkLease> queue;
  for (auto& b : batches) {
    report.skipped_empty += b.empty() ? 1 : 0;
    if (!b.empty()) queue.push_back(std::move(b));
  }

  const std::size_t slots_n = std::min(opts_.workers, queue.size());
  log << "amsweep: " << opts_.driver << ", " << queue.size()
      << " leased batch(es) over " << n << " point(s) on " << slots_n
      << " worker slot(s), per-point retries " << opts_.retries << "\n";

  std::vector<Slot> slots(slots_n);
  for (std::size_t w = 0; w < slots_n; ++w) {
    slots[w].lease = lease_path(w);
    slots[w].stat.worker = w;
  }
  std::vector<std::size_t> failures(n, 0);  // per-point crash charges
  std::vector<bool> point_done(n, false);
  std::uint64_t next_id = 1;
  bool abort = false;

  const auto offer = [&](Slot& s, std::size_t w) {
    WorkLease lease = std::move(queue.front());
    queue.pop_front();
    lease.id = next_id++;
    LeaseOffer off;
    off.lease = lease;
    write_lease_offer(s.lease, off);
    LeaseLogEntry entry;
    entry.id = lease.id;
    entry.worker = w;
    entry.points = lease.points.size();
    entry.cost = lease.cost;
    report.leases.push_back(entry);
    s.last_offered = lease.id;
    s.held.push_back(std::move(lease));
  };
  const auto offer_done = [&](Slot& s) {
    LeaseOffer off;
    off.lease.id = next_id++;
    off.done = true;
    write_lease_offer(s.lease, off);
    s.last_offered = off.lease.id;
    s.done_offered = true;
  };
  const auto find_entry = [&](std::uint64_t id) -> LeaseLogEntry* {
    for (auto& e : report.leases)
      if (e.id == id) return &e;
    return nullptr;
  };
  /// A dead worker's outstanding batch: charge every point one failure,
  /// re-queue the survivors (their records are checkpointed, so the
  /// re-run is mostly cache hits), drop the points whose budget is gone
  /// — they surface as missing_points at the end. Survivors go back as
  /// two halves (fresh lease ids are stamped at offer time): if one
  /// poison point keeps killing workers, successive crashes bisect
  /// toward it instead of charging the whole batch's points a failure
  /// each time, and the halves can respawn on different slots.
  const auto requeue = [&](const WorkLease& lease, std::size_t w) {
    std::vector<std::size_t> survivors;
    std::size_t dead = 0;
    for (const std::size_t p : lease.points) {
      if (++failures[p] > opts_.retries)
        ++dead;
      else
        survivors.push_back(p);
    }
    if (auto* e = find_entry(lease.id)) e->completed = false;
    if (dead > 0)
      log << "worker " << w << ": " << dead
          << " point(s) exhausted their retry budget\n";
    if (!survivors.empty()) {
      const std::size_t half = survivors.size() / 2;
      const double cost_per_point =
          lease.cost / static_cast<double>(lease.points.size());
      WorkLease front_half;
      front_half.points.assign(survivors.begin(), survivors.begin() + half);
      WorkLease back_half;
      back_half.points.assign(survivors.begin() + half, survivors.end());
      for (auto* part : {&back_half, &front_half}) {
        if (part->empty()) continue;
        part->cost = cost_per_point * static_cast<double>(part->points.size());
        queue.push_front(std::move(*part));
      }
      if (half > 0)
        log << "worker " << w << ": batch split into " << half << " + "
            << (survivors.size() - half) << " point(s) for requeue\n";
    }
  };

  try {
    while (true) {
      // Fill: spawn (or respawn) a process on every slot that has work.
      // A dead slot never holds a batch here — requeue always returned
      // its batches to the queue, where any free slot (this one
      // included) can pick them up under fresh lease ids.
      for (std::size_t w = 0; w < slots_n && !abort; ++w) {
        Slot& s = slots[w];
        if (s.live || s.closed) continue;
        if (queue.empty()) {
          s.closed = true;
          continue;
        }
        std::error_code ec;
        std::filesystem::remove(s.lease, ec);
        std::filesystem::remove(lease_ack_path(s.lease), ec);
        std::filesystem::remove(lease_heartbeat_path(s.lease), ec);
        offer(s, w);
        try {
          Subprocess::Options spawn_opts;
          spawn_opts.stdout_path = s.lease + ".log";
          spawn_opts.new_process_group = true;
          s.proc = Subprocess::spawn(lease_argv(s.lease), spawn_opts);
        } catch (const std::exception& e) {
          report.error = e.what();
          log << "worker " << w << ": " << e.what() << "\n";
          abort = true;
          break;
        }
        s.start = Clock::now();
        s.watch = BeatWatch{};
        s.watch.last_progress = s.start;
        s.stalled = false;
        s.done_offered = false;
        if (s.ever_spawned) ++s.stat.respawns;
        s.ever_spawned = true;
        s.live = true;
        log << "worker " << w << ": launched (pid " << s.proc.pid()
            << "), lease " << s.last_offered << " ("
            << s.held.back().points.size() << " point(s))\n";
      }

      bool any_live = false;
      bool progressed = false;
      for (std::size_t w = 0; w < slots_n; ++w) {
        Slot& s = slots[w];
        if (!s.live) continue;
        s.watch.observe(lease_heartbeat_path(s.lease));
        if (!s.stalled &&
            s.watch.stalled(opts_.stall_timeout_seconds, s.start,
                            /*expect_first_beat=*/true)) {
          log << "worker " << w << ": " << s.watch.describe(s.start)
              << " — killing pid " << s.proc.pid() << "\n";
          s.stalled = true;
          s.proc.kill();
        }

        // Liveness first: a worker seen exited has already written its
        // last ack, so the read below sees every lease it acknowledged.
        const bool running = s.proc.running();
        // Acks count as progress for both scheduling and supervision.
        // Any record of a lease still held is processed once; repeats
        // of already-processed records are skipped.
        bool ready = false;
        if (const auto acks = read_lease_acks(lease_ack_path(s.lease))) {
          for (const LeaseAck& ack : acks->acks) {
            const auto held = std::find_if(
                s.held.begin(), s.held.end(),
                [&](const WorkLease& h) { return h.id == ack.lease_id; });
            if (held == s.held.end()) continue;
            progressed = true;
            const auto seen = Clock::now();
            s.watch.last_progress = seen;
            const auto ran_from =
                seen - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(ack.wall_seconds));
            s.busy.emplace_back(std::max(ran_from, s.start), seen);
            s.stat.batches += 1;
            s.stat.points += ack.points;
            report.engine_runs += ack.executed;
            for (const std::size_t p : held->points) point_done[p] = true;
            if (auto* e = find_entry(ack.lease_id)) {
              e->completed = true;
              e->executed = ack.executed;
              e->wall_seconds = ack.wall_seconds;
            }
            log << "worker " << w << ": lease " << ack.lease_id << " done ("
                << ack.points << " point(s), " << ack.executed
                << " engine run(s), " << fmt_seconds(ack.wall_seconds)
                << " s)\n";
            s.held.erase(held);
          }
          ready = acks->ready == s.last_offered;
        }

        if (running) {
          // Hand the next batch (or the shutdown offer) to a worker that
          // holds nothing, or that took the last offer and queued all of
          // its points (`ready`) — its lanes are still busy.
          if (!s.done_offered && (s.held.empty() || ready)) {
            if (!queue.empty())
              offer(s, w);
            else
              offer_done(s);
          }
          any_live = true;
          continue;
        }

        // Process exited; its final state was judged by the ack block
        // above (an ack written just before exit still counts).
        progressed = true;
        s.live = false;
        ShardAttempt attempt;
        attempt.shard = w;
        attempt.attempt = s.stat.respawns;
        attempt.status = s.proc.wait();  // already reaped; returns the cache
        attempt.wall_seconds = seconds_since(s.start);
        attempt.heartbeats = s.watch.last_beats;
        attempt.stalled = s.stalled;
        report.attempts.push_back(attempt);

        if (!attempt.status.signaled &&
            attempt.status.code == kWorkerExitUsage) {
          report.error = "worker " + std::to_string(w) +
                         " rejected its flags (" + attempt.status.describe() +
                         ") — see " + s.lease + ".log";
          log << report.error << "\n";
          abort = true;
        } else if (!s.held.empty()) {
          // Latest first, so the earliest lease ends up at the queue's
          // front.
          for (auto h = s.held.rbegin(); h != s.held.rend(); ++h) {
            log << "worker " << w << ": " << attempt.status.describe()
                << " holding lease " << h->id << " — re-queueing\n";
            requeue(*h, w);
          }
          s.held.clear();
        } else if (attempt.status.success() && s.done_offered) {
          log << "worker " << w << ": done in "
              << fmt_seconds(attempt.wall_seconds) << " s ("
              << s.stat.batches << " batch(es), "
              << fmt_seconds(covered_seconds(s.busy)) << " s busy)\n";
          s.closed = true;
        } else {
          // Idle crash (or an exit 0 we never asked for): nothing to
          // charge; the fill phase respawns the slot if work remains.
          log << "worker " << w << ": " << attempt.status.describe()
              << " while idle\n";
        }
      }

      if (abort) {
        for (auto& s : slots)
          if (s.live) {
            s.proc.kill();
            s.proc.wait();
            s.live = false;
          }
        break;
      }
      // Outstanding batches always sit on a live slot or in the queue
      // (requeue restores a dead slot's batches to the queue), so
      // these two exhaust the termination condition.
      if (queue.empty() && !any_live) break;
      if (!progressed)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.poll_seconds));
    }
  } catch (const std::exception& e) {
    // I/O failure in the lease handoff (unwritable offer, corrupt
    // store): reported, never thrown — the contract of run().
    if (report.error.empty()) report.error = e.what();
    log << "lease scheduling failed: " << e.what() << "\n";
    abort = true;
    for (auto& s : slots)
      if (s.live) {
        s.proc.kill();
        s.proc.wait();
        s.live = false;
      }
  }

  // Load-balance accounting: steals are batches a slot ran beyond an
  // even split of what actually completed.
  std::size_t total_batches = 0;
  for (const auto& s : slots) total_batches += s.stat.batches;
  const std::size_t fair =
      slots_n == 0 ? 0 : (total_batches + slots_n - 1) / slots_n;
  for (auto& s : slots) {
    WorkerStat stat = s.stat;
    stat.busy_seconds = covered_seconds(s.busy);
    stat.steals = stat.batches > fair ? stat.batches - fair : 0;
    report.worker_stats.push_back(stat);
  }

  report.missing_points.clear();
  for (std::size_t p = 0; p < n; ++p)
    if (!point_done[p]) report.missing_points.push_back(p);

  report.merged_path = store_path(opts_.results_dir, opts_.driver);
  if (!abort && report.missing_points.empty()) {
    std::vector<ResultStore> stores;
    try {
      for (std::size_t w = 0; w < slots_n; ++w)
        if (slots[w].ever_spawned)
          stores.push_back(
              ResultStore::load_or_empty(lease_store_path(slots[w].lease)));
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
  std::ostringstream out;
  out << "#am-sweep-manifest v1\n";
  out << "host\t" << interfere::HostIdentity::detect().fingerprint() << '\n';
  out << "driver\t" << opts_.driver << '\n';
  std::string cmd;
  for (const auto& a : opts_.worker_command) {
    if (!cmd.empty()) cmd += ' ';
    cmd += a;
  }
  out << "command\t" << cmd << '\n';
  out << "schedule\t"
      << (report.schedule == Schedule::kLease ? "lease" : "static") << '\n';
  out << "shards\t" << opts_.shards << '\n';
  out << "workers\t" << opts_.workers << '\n';
  out << "retries\t" << opts_.retries << '\n';
  if (report.plan_points != SIZE_MAX)
    out << "plan_points\t" << report.plan_points << '\n';
  if (report.skipped_empty > 0)
    out << "skipped_empty\t" << report.skipped_empty << '\n';
  out << "status\t" << (report.success ? "ok" : "failed") << '\n';
  if (!report.error.empty()) out << "error\t" << report.error << '\n';
  out << "merged\t" << report.merged_path << '\n';
  out << "records\t" << report.merged_records << '\n';
  out << "engine_runs\t" << report.engine_runs << '\n';
  out << "wall_seconds\t" << fmt_seconds(report.wall_seconds) << '\n';
  for (const auto s : report.missing_shards) out << "missing\t" << s << '\n';
  for (const auto p : report.missing_points)
    out << "missing_point\t" << p << '\n';
  // attempt <shard|slot> <attempt> <status> <wall_s> <heartbeats>
  // <executed>
  for (const auto& a : report.attempts)
    out << "attempt\t" << a.shard << '\t' << a.attempt << '\t'
        << a.status.describe() << (a.stalled ? " [stalled]" : "") << '\t'
        << fmt_seconds(a.wall_seconds) << '\t' << a.heartbeats << '\t'
        << (a.executed == SIZE_MAX ? std::string("-")
                                   : std::to_string(a.executed))
        << '\n';
  // lease <id> <slot> <points> <cost> <executed> <wall_s> <ok|requeued>
  for (const auto& l : report.leases)
    out << "lease\t" << l.id << '\t' << l.worker << '\t' << l.points << '\t'
        << fmt_seconds(l.cost) << '\t'
        << (l.executed == SIZE_MAX ? std::string("-")
                                   : std::to_string(l.executed))
        << '\t' << fmt_seconds(l.wall_seconds) << '\t'
        << (l.completed ? "ok" : "requeued") << '\n';
  // worker <slot> <busy_s> <batches> <points> <respawns> <steals>
  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& ws : report.worker_stats) {
    out << "worker\t" << ws.worker << '\t' << fmt_seconds(ws.busy_seconds)
        << '\t' << ws.batches << '\t' << ws.points << '\t' << ws.respawns
        << '\t' << ws.steals << '\n';
    busy_max = std::max(busy_max, ws.busy_seconds);
    busy_sum += ws.busy_seconds;
  }
  if (!report.worker_stats.empty() && busy_sum > 0.0) {
    const double mean = busy_sum / report.worker_stats.size();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", busy_max / mean);
    out << "busy_max_over_mean\t" << buf << '\n';
  }
  atomic_write_file(manifest_path(opts_.results_dir, opts_.driver),
                    out.str(), "orchestrator");
}

}  // namespace am::measure
