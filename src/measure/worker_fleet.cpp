#include "measure/worker_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <utility>

#include "common/heartbeat.hpp"

namespace am::measure {

namespace {

using Clock = std::chrono::steady_clock;
using Span = std::pair<Clock::time_point, Clock::time_point>;

/// Beat-sequence progress, judged against the fleet's own steady clock.
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

  /// `spawn` anchors the never-beat case: workers beat at startup.
  bool stalled(double timeout, Clock::time_point spawn) const {
    if (timeout <= 0.0) return false;
    if (last_beats > 0) return seconds_since(last_progress) > timeout;
    return seconds_since(spawn) > timeout;
  }

  std::string describe(Clock::time_point spawn) const {
    if (last_beats > 0)
      return "heartbeat stuck at beat " + std::to_string(last_beats) +
             " for " + fmt_seconds(seconds_since(last_progress)) + " s";
    return "no heartbeat " + fmt_seconds(seconds_since(spawn)) +
           " s after spawn";
  }
};

/// Seconds covered by the union of `spans`.
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

}  // namespace

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct WorkerFleet::Slot {
  std::string lease;  // lease-file path
  Subprocess proc;
  bool live = false;
  bool ever_spawned = false;
  bool done_offered = false;
  bool stalled = false;
  std::vector<HeldLease> held;
  std::uint64_t last_offered = 0;
  Clock::time_point start;
  BeatWatch watch;
  std::vector<Span> busy;  // acknowledged leases' intervals
  WorkerStat stat;
};

WorkerFleet::WorkerFleet(WorkerFleetOptions opts) : opts_(std::move(opts)) {
  for (std::size_t w = 0; w < opts_.lease_paths.size(); ++w) {
    auto slot = std::make_unique<Slot>();
    slot->lease = opts_.lease_paths[w];
    slot->stat.worker = w;
    slots_.push_back(std::move(slot));
  }
}

WorkerFleet::~WorkerFleet() { kill_all(); }

std::size_t WorkerFleet::size() const { return slots_.size(); }
bool WorkerFleet::live(std::size_t w) const { return slots_[w]->live; }
bool WorkerFleet::ever_spawned(std::size_t w) const {
  return slots_[w]->ever_spawned;
}
const std::string& WorkerFleet::lease_path(std::size_t w) const {
  return slots_[w]->lease;
}

const HeldLease& WorkerFleet::spawn(std::size_t w, LeaseOffer first,
                                    std::uint64_t owner, std::ostream& log) {
  Slot& s = *slots_[w];
  std::error_code ec;
  std::filesystem::remove(s.lease, ec);
  std::filesystem::remove(lease_ack_path(s.lease), ec);
  std::filesystem::remove(lease_heartbeat_path(s.lease), ec);
  s.held.clear();
  s.done_offered = false;
  offer(w, std::move(first), owner);
  try {
    Subprocess::Options spawn_opts;
    spawn_opts.stdout_path = s.lease + ".log";  // stderr shares it
    // Own process group: killing a stalled worker must also take out
    // any grandchildren (wrapper-script workers), or an orphan would
    // keep writing this slot's store while the retry runs.
    spawn_opts.new_process_group = true;
    s.proc = Subprocess::spawn(opts_.argv(s.lease), spawn_opts);
  } catch (...) {
    s.held.clear();
    throw;
  }
  s.start = Clock::now();
  s.watch = BeatWatch{};
  s.watch.last_progress = s.start;
  s.stalled = false;
  if (s.ever_spawned) ++s.stat.respawns;
  s.ever_spawned = true;
  s.live = true;
  const HeldLease& held = s.held.back();
  log << "worker " << w << ": launched (pid " << s.proc.pid() << "), lease "
      << held.lease.id << " (" << held.lease.points.size() << " point(s))\n";
  return held;
}

const HeldLease& WorkerFleet::offer(std::size_t w, LeaseOffer offer,
                                    std::uint64_t owner) {
  Slot& s = *slots_[w];
  offer.lease.id = next_id_++;
  write_lease_offer(s.lease, offer);
  s.last_offered = offer.lease.id;
  s.held.push_back({std::move(offer.lease), owner});
  return s.held.back();
}

void WorkerFleet::offer_done(std::size_t w) {
  Slot& s = *slots_[w];
  LeaseOffer off;
  off.lease.id = next_id_++;
  off.done = true;
  write_lease_offer(s.lease, off);
  s.last_offered = off.lease.id;
  s.done_offered = true;
}

SlotPoll WorkerFleet::poll(std::size_t w, std::ostream& log) {
  Slot& s = *slots_[w];
  SlotPoll out;
  s.watch.observe(lease_heartbeat_path(s.lease));
  if (!s.stalled && s.watch.stalled(opts_.stall_timeout_seconds, s.start)) {
    log << "worker " << w << ": " << s.watch.describe(s.start)
        << " — killing pid " << s.proc.pid() << "\n";
    s.stalled = true;
    s.proc.kill();
  }

  const bool running = s.proc.running();
  bool ready = false;
  if (const auto acks = read_lease_acks(lease_ack_path(s.lease))) {
    for (const LeaseAck& ack : acks->acks) {
      const auto held = std::find_if(
          s.held.begin(), s.held.end(),
          [&](const HeldLease& h) { return h.lease.id == ack.lease_id; });
      if (held == s.held.end()) continue;  // already handled
      // Acks count as progress for supervision too.
      const auto seen = Clock::now();
      s.watch.last_progress = seen;
      const auto ran_from =
          seen - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(ack.wall_seconds));
      s.busy.emplace_back(std::max(ran_from, s.start), seen);
      s.stat.batches += 1;
      s.stat.points += ack.points;
      log << "worker " << w << ": lease " << ack.lease_id << " done ("
          << ack.points << " point(s), " << ack.executed
          << " engine run(s), " << fmt_seconds(ack.wall_seconds) << " s)\n";
      out.done.push_back({std::move(*held), ack});
      s.held.erase(held);
    }
    ready = acks->ready == s.last_offered;
  }

  if (running) {
    out.wants_offer = !s.done_offered && (s.held.empty() || ready);
    return out;
  }

  s.live = false;
  WorkerExit& exit = out.exit.emplace();
  exit.status = s.proc.wait();  // already reaped; returns the cache
  exit.wall_seconds = seconds_since(s.start);
  exit.heartbeats = s.watch.last_beats;
  exit.stalled = s.stalled;
  exit.held = std::exchange(s.held, {});
  exit.drained = exit.status.success() && s.done_offered && exit.held.empty();
  if (exit.drained) {
    log << "worker " << w << ": done in " << fmt_seconds(exit.wall_seconds)
        << " s (" << s.stat.batches << " batch(es), "
        << fmt_seconds(covered_seconds(s.busy)) << " s busy)\n";
  } else if (exit.held.empty()) {
    log << "worker " << w << ": " << exit.status.describe()
        << " while idle\n";
  }
  for (const HeldLease& h : exit.held)
    log << "worker " << w << ": " << exit.status.describe()
        << " holding lease " << h.lease.id << " ("
        << h.lease.points.size() << " point(s))\n";
  return out;
}

void WorkerFleet::kill_all() {
  for (auto& s : slots_)
    if (s->live) {
      s->proc.kill();
      s->proc.wait();
      s->live = false;
    }
}

WorkerStat WorkerFleet::stat(std::size_t w) const {
  WorkerStat stat = slots_[w]->stat;
  stat.busy_seconds = covered_seconds(slots_[w]->busy);
  return stat;
}

std::string busy_max_over_mean(const std::vector<WorkerStat>& stats) {
  double max = 0.0, sum = 0.0;
  for (const auto& ws : stats) {
    max = std::max(max, ws.busy_seconds);
    sum += ws.busy_seconds;
  }
  if (sum <= 0.0) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                max / (sum / static_cast<double>(stats.size())));
  return buf;
}

std::size_t requeue_with_bisect(const WorkLease& lease, std::size_t retries,
                                std::vector<std::size_t>& failures,
                                std::deque<WorkLease>& queue,
                                std::size_t worker, std::ostream& log) {
  std::vector<std::size_t> survivors;
  std::size_t dead = 0;
  for (const std::size_t p : lease.points) {
    if (++failures.at(p) > retries)
      ++dead;
    else
      survivors.push_back(p);
  }
  if (dead > 0)
    log << "worker " << worker << ": " << dead
        << " point(s) exhausted their retry budget\n";
  if (survivors.empty()) return dead;
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
    log << "worker " << worker << ": batch split into " << half << " + "
        << (survivors.size() - half) << " point(s) for requeue\n";
  return dead;
}

}  // namespace am::measure
