#include "measure/worker_fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
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

WorkerFleet::~WorkerFleet() {
  for (auto& s : slots_)
    if (s->live) {
      s->proc.kill();
      s->proc.wait();
    }
}

bool WorkerFleet::ever_spawned(std::size_t w) const {
  return slots_[w]->ever_spawned;
}
const std::string& WorkerFleet::lease_path(std::size_t w) const {
  return slots_[w]->lease;
}

FleetPass WorkerFleet::pass(const FleetPolicy& policy, std::ostream& log) {
  FleetPass out;
  for (std::size_t w = 0; w < slots_.size(); ++w)
    if (!slots_[w]->live) out.progressed |= spawn(w, policy, log);
  for (std::size_t w = 0; w < slots_.size(); ++w)
    if (slots_[w]->live) poll(w, policy, out, log);
  return out;
}

bool WorkerFleet::spawn(std::size_t w, const FleetPolicy& policy,
                        std::ostream& log) {
  // A dead slot never holds a lease here: its leases went back to their
  // owner at its exit, and any idle slot (this one included) can take
  // them up again under fresh lease ids.
  auto next = policy.next(w, true);
  if (!next) return false;
  Slot& s = *slots_[w];
  std::error_code ec;
  std::filesystem::remove(s.lease, ec);
  std::filesystem::remove(lease_ack_path(s.lease), ec);
  std::filesystem::remove(lease_heartbeat_path(s.lease), ec);
  s.held.clear();
  s.done_offered = false;
  try {
    offer(w, std::move(next->offer), next->owner);
    Subprocess::Options spawn_opts;
    spawn_opts.stdout_path = s.lease + ".log";  // stderr shares it
    // Own process group: killing a stalled worker must also take out
    // any grandchildren (wrapper-script workers), or an orphan would
    // keep writing this slot's store while the retry runs.
    spawn_opts.new_process_group = true;
    s.proc = Subprocess::spawn(opts_.argv(s.lease), spawn_opts);
  } catch (const std::exception& e) {
    s.held.clear();
    log << "worker " << w << ": " << e.what() << "\n";
    policy.unspawnable(w, next->owner, e.what());
    return true;
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
  policy.offered(w, held);
  return true;
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

void WorkerFleet::poll(std::size_t w, const FleetPolicy& policy, FleetPass& out,
                       std::ostream& log) {
  Slot& s = *slots_[w];
  s.watch.observe(lease_heartbeat_path(s.lease));
  if (!s.stalled && s.watch.stalled(opts_.stall_timeout_seconds, s.start)) {
    log << "worker " << w << ": " << s.watch.describe(s.start)
        << " — killing pid " << s.proc.pid() << "\n";
    s.stalled = true;
    s.proc.kill();
  }

  // Liveness before the ack file: a worker seen exited has written its
  // last ack, so the read below sees every lease it acknowledged.
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
      const HeldLease done = std::move(*held);
      s.held.erase(held);
      out.progressed = true;
      policy.acked(w, done, ack);
    }
    ready = acks->ready == s.last_offered;
  }

  if (running) {
    out.any_live = true;
    if (s.done_offered || !(s.held.empty() || ready)) return;
    if (auto next = policy.next(w, false)) {
      policy.offered(w, offer(w, std::move(next->offer), next->owner));
      out.progressed = true;
    } else if (policy.done_when_dry) {
      offer_done(w);
      out.progressed = true;
    }
    return;
  }

  s.live = false;
  WorkerExit exit;
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
  out.progressed = true;
  policy.exited(w, exit);
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

LeaseBook::LeaseBook(std::size_t points) {
  // vector<bool> does not check a count past max_size(): its word count
  // wraps, leaving a bitmap far smaller than size().
  if (points > done.max_size())
    throw std::length_error(std::to_string(points) + " plan points");
  done.assign(points, false);
}

std::size_t LeaseBook::cut(std::size_t target,
                           const std::vector<double>& costs) {
  failures.assign(points(), 0);
  std::vector<std::size_t> todo;  // plan indices not yet done
  std::vector<double> todo_costs;
  for (std::size_t p = 0; p < points(); ++p) {
    if (done[p]) continue;
    todo.push_back(p);
    if (!costs.empty()) todo_costs.push_back(costs.at(p));
  }
  if (todo.empty()) return 0;
  target = std::min(std::max<std::size_t>(target, 1), todo.size());
  for (WorkLease& batch : make_batches(todo.size(), target, todo_costs)) {
    for (std::size_t& p : batch.points) p = todo[p];
    pending.push_back(std::move(batch));
  }
  return todo.size();
}

WorkLease LeaseBook::take() {
  WorkLease lease = std::move(pending.front());
  pending.pop_front();
  ++outstanding;
  return lease;
}

void LeaseBook::ack(const WorkLease& lease, std::size_t executed_runs) {
  --outstanding;
  executed += executed_runs;
  for (const std::size_t p : lease.points)
    if (p < done.size() && !done[p]) {
      done[p] = true;
      ++done_points;
    }
}

std::size_t LeaseBook::requeue(const WorkLease& lease, std::size_t retries,
                               std::size_t worker, std::ostream& log) {
  --outstanding;
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
    pending.push_front(std::move(*part));
  }
  if (half > 0)
    log << "worker " << worker << ": batch split into " << half << " + "
        << (survivors.size() - half) << " point(s) for requeue\n";
  return dead;
}

}  // namespace am::measure
