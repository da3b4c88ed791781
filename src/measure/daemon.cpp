#include "measure/daemon.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/heartbeat.hpp"
#include "common/subprocess.hpp"
#include "common/work_lease.hpp"
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

bool parse_u64_str(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// key → rest-of-line split at the first tab.
bool split_kv(const std::string& line, std::string& key, std::string& value) {
  const std::size_t tab = line.find('\t');
  if (tab == std::string::npos) {
    key = line;
    value.clear();
    return !key.empty();
  }
  key = line.substr(0, tab);
  value = line.substr(tab + 1);
  return !key.empty();
}

std::optional<JobState> parse_job_state(const std::string& s) {
  for (const JobState st :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kCancelled})
    if (s == job_state_name(st)) return st;
  return std::nullopt;
}

/// Same NTP-immune liveness judgment the orchestrator applies: the beat
/// *sequence* must advance against our own steady clock.
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

  bool stalled(double timeout, Clock::time_point spawn) const {
    if (timeout <= 0.0) return false;
    if (last_beats > 0) return seconds_since(last_progress) > timeout;
    return seconds_since(spawn) > timeout;  // daemon workers always beat
  }

  std::string describe(Clock::time_point spawn) const {
    if (last_beats > 0)
      return "heartbeat stuck at beat " + std::to_string(last_beats) +
             " for " + fmt_seconds(seconds_since(last_progress)) + " s";
    return "no heartbeat " + fmt_seconds(seconds_since(spawn)) +
           " s after spawn";
  }
};

constexpr const char* kQueueHeader = "#am-sweepd-queue v1";

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "queued";
}

std::string encode_reply(const DaemonReply& reply) {
  std::ostringstream out;
  out << "#am-reply v1\n";
  out << "ok\t" << (reply.ok ? 1 : 0) << '\n';
  out << "retry\t" << (reply.retry ? 1 : 0) << '\n';
  out << "job\t" << reply.job << '\n';
  out << "state\t" << job_state_name(reply.state) << '\n';
  out << "points\t" << reply.points << '\n';
  out << "done\t" << reply.done_points << '\n';
  out << "executed\t" << reply.executed << '\n';
  if (!reply.error.empty()) {
    // Error text is free-form but must stay one line.
    std::string e = reply.error;
    for (char& c : e)
      if (c == '\n' || c == '\t') c = ' ';
    out << "error\t" << e << '\n';
  }
  return out.str();
}

std::optional<DaemonReply> parse_reply(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "#am-reply v1") return std::nullopt;
  DaemonReply reply;
  bool saw_ok = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string key, value;
    if (!split_kv(line, key, value)) return std::nullopt;
    std::uint64_t u = 0;
    if (key == "ok") {
      if (value != "0" && value != "1") return std::nullopt;
      reply.ok = value == "1";
      saw_ok = true;
    } else if (key == "retry") {
      if (value != "0" && value != "1") return std::nullopt;
      reply.retry = value == "1";
    } else if (key == "job") {
      if (!parse_u64_str(value, u)) return std::nullopt;
      reply.job = u;
    } else if (key == "state") {
      const auto st = parse_job_state(value);
      if (!st) return std::nullopt;
      reply.state = *st;
    } else if (key == "points") {
      if (!parse_u64_str(value, u)) return std::nullopt;
      reply.points = static_cast<std::size_t>(u);
    } else if (key == "done") {
      if (!parse_u64_str(value, u)) return std::nullopt;
      reply.done_points = static_cast<std::size_t>(u);
    } else if (key == "executed") {
      if (!parse_u64_str(value, u)) return std::nullopt;
      reply.executed = static_cast<std::size_t>(u);
    } else if (key == "error") {
      reply.error = value;
    }
    // Unknown keys are ignored: replies may grow fields.
  }
  if (!saw_ok) return std::nullopt;
  return reply;
}

void FairShareScheduler::add(std::uint64_t job) {
  for (const auto j : order_)
    if (j == job) return;
  order_.push_back(job);
}

void FairShareScheduler::remove(std::uint64_t job) {
  for (auto it = order_.begin(); it != order_.end(); ++it)
    if (*it == job) {
      order_.erase(it);
      return;
    }
}

std::optional<std::uint64_t> FairShareScheduler::pick(
    const std::function<bool(std::uint64_t)>& has_work) {
  for (std::size_t i = 0; i < order_.size(); ++i)
    if (has_work(order_[i])) {
      const std::uint64_t job = order_[i];
      order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
      order_.push_back(job);
      return job;
    }
  return std::nullopt;
}

SweepDaemon::SweepDaemon(SweepDaemonOptions opts) : opts_(std::move(opts)) {
  if (opts_.socket_path.empty())
    throw std::invalid_argument("amsweepd: socket path is required");
  if (opts_.results_dir.empty())
    throw std::invalid_argument("amsweepd: results_dir is required");
  if (opts_.workers > 0 && opts_.worker_command.empty())
    throw std::invalid_argument(
        "amsweepd: a worker command is required unless --workers 0");
  if (opts_.max_frame_bytes < kFrameHeaderBytes)
    throw std::invalid_argument("amsweepd: max frame bound too small");
}

SweepDaemon::~SweepDaemon() = default;

bool SweepDaemon::valid_namespace(const std::string& ns) {
  if (ns.empty() || ns.size() > 64) return false;
  for (const char c : ns)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '-'))
      return false;
  return true;
}

std::string SweepDaemon::daemon_dir(const std::string& results_dir) {
  return (std::filesystem::path(results_dir) / "daemon").string();
}

std::string SweepDaemon::queue_path(const std::string& results_dir) {
  return (std::filesystem::path(daemon_dir(results_dir)) / "queue.tsv")
      .string();
}

std::string SweepDaemon::manifest_path(const std::string& results_dir) {
  return (std::filesystem::path(daemon_dir(results_dir)) / "manifest.tsv")
      .string();
}

std::string SweepDaemon::namespace_store_path(const std::string& results_dir,
                                              const std::string& ns) {
  return (std::filesystem::path(results_dir) / ("ns-" + ns + ".tsv"))
      .string();
}

std::string SweepDaemon::job_spec_path(const std::string& results_dir,
                                       std::uint64_t job) {
  return (std::filesystem::path(daemon_dir(results_dir)) /
          ("job" + std::to_string(job) + ".plan"))
      .string();
}

namespace {

/// One accepted client connection. A connection that sent a `wait`
/// request carries its subscription here — waiters *are* connections,
/// so a disconnected waiter cleans itself up.
struct Conn {
  Socket sock;
  FrameReader reader;
  bool waiting = false;
  std::uint64_t waiting_job = 0;

  explicit Conn(Socket s, std::size_t max_frame)
      : sock(std::move(s)), reader(max_frame) {}
};

/// One tenant job: a submitted plan working its way through the queue.
struct Job {
  std::uint64_t id = 0;
  std::string ns;
  JobState state = JobState::kQueued;
  std::string error;
  PlanSpec spec;
  bool spec_ok = false;  // spec parsed and held in memory
  std::size_t points = 0;
  std::vector<bool> point_done;
  std::size_t done_points = 0;
  std::size_t executed = 0;
  std::vector<std::size_t> failures;   // per-point crash charges
  std::deque<WorkLease> batch_queue;   // pending batches (plan indices)
  std::size_t outstanding = 0;         // batches currently leased
  bool admitted = false;
  std::unique_ptr<ExperimentPlan> plan;
  std::unique_ptr<SweepRunner> runner;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
};

/// One worker slot, mirroring the orchestrator's lease-mode slot.
struct Slot {
  Subprocess proc;
  bool live = false;
  bool ever_spawned = false;
  bool done_offered = false;
  std::string lease;      // lease-file path
  WorkLease current;
  bool has_current = false;
  std::uint64_t job = 0;  // owner of `current`
  Clock::time_point start;
  BeatWatch watch;
  bool stalled = false;
  double busy_seconds = 0.0;
  std::size_t batches = 0;
  std::size_t points = 0;
  std::size_t respawns = 0;
};

}  // namespace

DaemonReport SweepDaemon::run(std::ostream& log) {
  DaemonReport report;
  const std::string& dir = opts_.results_dir;
  try {
    std::filesystem::create_directories(daemon_dir(dir));
  } catch (const std::exception& e) {
    report.error = std::string("cannot create daemon dir: ") + e.what();
    log << report.error << "\n";
    return report;
  }

  // --- serving state -----------------------------------------------------
  std::map<std::uint64_t, Job> jobs;
  std::uint64_t next_job_id = 1;
  std::uint64_t next_lease_id = 1;
  FairShareScheduler scheduler;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Slot> slots(opts_.workers);
  for (std::size_t w = 0; w < slots.size(); ++w)
    slots[w].lease = (std::filesystem::path(daemon_dir(dir)) /
                      ("wrk" + std::to_string(w) + ".lease"))
                         .string();
  bool queue_dirty = false;

  // --- persistence -------------------------------------------------------
  const auto write_queue = [&] {
    std::ostringstream out;
    out << kQueueHeader << '\n';
    out << "next_job\t" << next_job_id << '\n';
    for (const auto& [id, job] : jobs) {
      // Running jobs persist as queued: their pending points re-admit on
      // the next start, their completed points ride the `done` line.
      const JobState persisted =
          job.state == JobState::kRunning ? JobState::kQueued : job.state;
      out << "job\t" << id << '\t' << job.ns << '\t'
          << job_state_name(persisted) << '\t' << job.points << '\t'
          << job.executed << '\t' << job.error << '\n';
      if (job.done_points > 0) {
        out << "done\t" << id;
        for (std::size_t p = 0; p < job.point_done.size(); ++p)
          if (job.point_done[p]) out << '\t' << p;
        out << '\n';
      }
    }
    atomic_write_file(queue_path(dir), out.str(), "sweepd-queue");
    queue_dirty = false;
  };

  const auto load_queue = [&] {
    std::ifstream in(queue_path(dir));
    if (!in) return;
    std::string line;
    if (!std::getline(in, line) || line != kQueueHeader) {
      log << "ignoring unreadable queue file " << queue_path(dir) << "\n";
      return;
    }
    std::size_t resumed = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string key;
      std::getline(ls, key, '\t');
      if (key == "next_job") {
        std::string v;
        std::getline(ls, v, '\t');
        std::uint64_t u = 0;
        if (parse_u64_str(v, u)) next_job_id = std::max(next_job_id, u);
      } else if (key == "job") {
        std::string id_s, ns, state_s, points_s, executed_s, error;
        std::getline(ls, id_s, '\t');
        std::getline(ls, ns, '\t');
        std::getline(ls, state_s, '\t');
        std::getline(ls, points_s, '\t');
        std::getline(ls, executed_s, '\t');
        std::getline(ls, error);
        std::uint64_t id = 0, pts = 0, exec = 0;
        const auto st = parse_job_state(state_s);
        if (!parse_u64_str(id_s, id) || !st || !parse_u64_str(points_s, pts) ||
            !parse_u64_str(executed_s, exec) || !valid_namespace(ns)) {
          log << "queue file: skipping malformed job line\n";
          continue;
        }
        Job job;
        job.id = id;
        job.ns = ns;
        job.state = *st;
        job.points = static_cast<std::size_t>(pts);
        job.point_done.assign(job.points, false);
        job.executed = static_cast<std::size_t>(exec);
        job.error = error;
        jobs.emplace(id, std::move(job));
        if (*st == JobState::kQueued) ++resumed;
      } else if (key == "done") {
        std::string id_s;
        std::getline(ls, id_s, '\t');
        std::uint64_t id = 0;
        if (!parse_u64_str(id_s, id)) continue;
        const auto it = jobs.find(id);
        if (it == jobs.end()) continue;
        std::string p_s;
        while (std::getline(ls, p_s, '\t')) {
          std::uint64_t p = 0;
          if (parse_u64_str(p_s, p) && p < it->second.point_done.size() &&
              !it->second.point_done[p]) {
            it->second.point_done[p] = true;
            ++it->second.done_points;
          }
        }
      }
    }
    if (!jobs.empty())
      log << "resumed queue: " << jobs.size() << " job(s), " << resumed
          << " pending\n";
  };

  // --- replies and waiters ----------------------------------------------
  const auto reply_for = [&](const Job& job) {
    DaemonReply r;
    r.ok = job.state != JobState::kFailed;
    r.job = job.id;
    r.state = job.state;
    r.points = job.points;
    r.done_points = job.done_points;
    r.executed = job.executed;
    r.error = job.error;
    return r;
  };
  const auto send_reply = [&](Conn& conn, const DaemonReply& reply) {
    try {
      write_frame(conn.sock, {kFrameReply, encode_reply(reply)});
      return true;
    } catch (const SocketError&) {
      conn.sock.close();  // peer gone or wedged; reap below
      return false;
    }
  };
  const auto notify_terminal = [&](const Job& job) {
    for (auto& conn : conns) {
      if (!conn->sock.valid() || !conn->waiting ||
          conn->waiting_job != job.id)
        continue;
      conn->waiting = false;
      send_reply(*conn, reply_for(job));
    }
  };

  // --- job lifecycle -----------------------------------------------------
  const auto fail_job = [&](Job& job, const std::string& why) {
    job.state = JobState::kFailed;
    job.error = why;
    job.batch_queue.clear();
    scheduler.remove(job.id);
    ++report.jobs_failed;
    log << "job " << job.id << " (" << job.ns << "): failed — " << why
        << "\n";
    notify_terminal(job);
    queue_dirty = true;
  };

  /// Merges exactly this job's plan records into its namespace store.
  /// Worker slot stores are shared scratch (they accumulate whatever
  /// leases landed on the slot, seeded caches included); the filter by
  /// the job's own ScenarioKeys is what keeps each namespace store
  /// byte-identical to a direct serial run of that namespace's plans.
  const auto finalize_job = [&](Job& job) {
    try {
      const std::string ns_path = namespace_store_path(dir, job.ns);
      ResultStore ns = ResultStore::load_or_empty(ns_path);
      std::vector<ResultStore> scratch;
      for (const auto& entry :
           std::filesystem::directory_iterator(daemon_dir(dir))) {
        const std::string name = entry.path().filename().string();
        // All slot stores ever written under this results dir — a
        // resumed job's records may live in a previous daemon's slots.
        if (name.size() > 10 &&
            name.substr(name.size() - 10) == ".lease.tsv")
          scratch.push_back(ResultStore::load_or_empty(entry.path().string()));
      }
      for (std::size_t p = 0; p < job.points; ++p) {
        const ScenarioKey key = job.runner->key_for(*job.plan, p);
        if (ns.has(key)) continue;
        bool found = false;
        for (const auto& s : scratch)
          if (const auto* rec = s.find(key)) {
            ns.put(key, *rec, {}, s.run_seconds(key));
            found = true;
            break;
          }
        if (!found)
          throw std::runtime_error(
              "no worker store holds plan point " + std::to_string(p) +
              " — a worker acknowledged without persisting?");
      }
      ns.save(ns_path);
      ResultStore::load(ns_path);  // validate what we wrote
      job.state = JobState::kDone;
      scheduler.remove(job.id);
      ++report.jobs_done;
      log << "job " << job.id << " (" << job.ns << "): done — " << job.points
          << " point(s), " << job.executed << " engine run(s) -> " << ns_path
          << "\n";
      notify_terminal(job);
      queue_dirty = true;
    } catch (const std::exception& e) {
      fail_job(job, std::string("merge failed: ") + e.what());
    }
  };

  /// Builds the executable plan and splits its *pending* points into
  /// fair-share batches. Called once per job when worker slots exist.
  const auto admit_job = [&](Job& job) {
    job.admitted = true;
    try {
      if (!job.spec_ok) {  // resumed from the queue file
        std::ifstream in(job_spec_path(dir, job.id));
        if (!in)
          throw std::invalid_argument("plan spec file missing: " +
                                      job_spec_path(dir, job.id));
        std::stringstream text;
        text << in.rdbuf();
        job.spec = parse_plan_spec(text.str());
        job.spec_ok = true;
      }
      job.plan = std::make_unique<ExperimentPlan>(build_plan(job.spec));
      job.runner = std::make_unique<SweepRunner>(make_runner(job.spec));
      job.points = job.plan->size();
      if (job.point_done.size() != job.points) {
        job.point_done.assign(job.points, false);
        job.done_points = 0;
      }
      job.failures.assign(job.points, 0);
    } catch (const std::exception& e) {
      fail_job(job, std::string("plan rejected: ") + e.what());
      return;
    }
    std::vector<std::size_t> pending;
    for (std::size_t p = 0; p < job.points; ++p)
      if (!job.point_done[p]) pending.push_back(p);
    if (pending.empty()) {
      job.state = JobState::kRunning;
      finalize_job(job);
      return;
    }
    // Size-aware batches over the pending subset; measured run times in
    // the namespace store (or seeded caches) sharpen the split.
    std::vector<double> costs;
    try {
      const ResultStore ns = ResultStore::load_or_empty(
          namespace_store_path(dir, job.ns));
      const std::vector<double> all = job.runner->estimate_costs(*job.plan,
                                                                 &ns);
      for (const std::size_t p : pending) costs.push_back(all[p]);
    } catch (const std::exception&) {
      costs.clear();  // cost model is advisory; uniform is always safe
    }
    std::size_t target = opts_.batches_per_job != 0 ? opts_.batches_per_job
                                                    : opts_.workers * 2;
    target = std::min(std::max<std::size_t>(target, 1), pending.size());
    auto batches = make_batches(pending.size(), target, costs);
    for (auto& b : batches) {
      if (b.empty()) continue;
      for (auto& p : b.points) p = pending[p];  // map back to plan indices
      job.batch_queue.push_back(std::move(b));
    }
    job.state = JobState::kRunning;
    scheduler.add(job.id);
    queue_dirty = true;
    log << "job " << job.id << " (" << job.ns << "): admitted — "
        << pending.size() << " pending point(s) in "
        << job.batch_queue.size() << " batch(es)\n";
  };

  // --- frame handling ----------------------------------------------------
  const auto handle_frame = [&](Conn& conn, const Frame& frame) {
    if (frame.type == kFrameSubmit) {
      DaemonReply r;
      if (drain_.load(std::memory_order_acquire)) {
        r.retry = true;
        r.error = "daemon is draining; retry after it restarts";
        send_reply(conn, r);
        return;
      }
      const std::size_t nl = frame.payload.find('\n');
      std::string ns_line = nl == std::string::npos
                                ? frame.payload
                                : frame.payload.substr(0, nl);
      std::string key, ns;
      if (!split_kv(ns_line, key, ns) || key != "ns" ||
          !valid_namespace(ns)) {
        r.error =
            "submit payload must start with 'ns\\t<namespace>' "
            "(1-64 chars of [A-Za-z0-9_-])";
        send_reply(conn, r);
        return;
      }
      const std::string plan_text =
          nl == std::string::npos ? std::string{} : frame.payload.substr(nl + 1);
      PlanSpec spec;
      try {
        spec = parse_plan_spec(plan_text);
      } catch (const std::exception& e) {
        r.error = e.what();
        send_reply(conn, r);
        return;
      }
      Job job;
      job.id = next_job_id++;
      job.ns = ns;
      job.spec = std::move(spec);
      job.spec_ok = true;
      try {
        job.points = build_plan(job.spec).size();
        // Canonical re-serialization: the durable spec is exactly what
        // a resumed daemon will parse, not the client's raw bytes.
        atomic_write_file(job_spec_path(dir, job.id),
                          serialize_plan_spec(job.spec), "sweepd-plan");
      } catch (const std::exception& e) {
        r.error = e.what();
        send_reply(conn, r);
        return;
      }
      job.point_done.assign(job.points, false);
      ++report.jobs_accepted;
      log << "job " << job.id << " (" << job.ns << "): accepted — "
          << job.points << " point(s)\n";
      r.ok = true;
      r.job = job.id;
      r.state = JobState::kQueued;
      r.points = job.points;
      jobs.emplace(job.id, std::move(job));
      queue_dirty = true;
      send_reply(conn, r);
      return;
    }

    if (frame.type == kFrameStatus || frame.type == kFrameCancel ||
        frame.type == kFrameWait) {
      std::string key, value;
      std::uint64_t id = 0;
      DaemonReply r;
      if (!split_kv(frame.payload, key, value) || key != "job" ||
          !parse_u64_str(value, id)) {
        r.error = "payload must be 'job\\t<id>'";
        send_reply(conn, r);
        return;
      }
      const auto it = jobs.find(id);
      if (it == jobs.end()) {
        r.job = id;
        r.error = "unknown job " + std::to_string(id);
        send_reply(conn, r);
        return;
      }
      Job& job = it->second;
      if (frame.type == kFrameStatus) {
        send_reply(conn, reply_for(job));
      } else if (frame.type == kFrameCancel) {
        if (job.terminal()) {
          r = reply_for(job);
          r.ok = false;
          r.error = "job already " + std::string(job_state_name(job.state));
          send_reply(conn, r);
        } else {
          job.state = JobState::kCancelled;
          job.batch_queue.clear();
          scheduler.remove(job.id);
          log << "job " << job.id << " (" << job.ns << "): cancelled\n";
          notify_terminal(job);
          queue_dirty = true;
          send_reply(conn, reply_for(job));
        }
      } else {  // kFrameWait
        if (job.terminal()) {
          send_reply(conn, reply_for(job));
        } else {
          conn.waiting = true;
          conn.waiting_job = id;
        }
      }
      return;
    }

    // Unknown request type: protocol-level, fails the connection.
    ++report.protocol_errors;
    DaemonReply r;
    r.error = "unknown frame type " + std::to_string(frame.type);
    send_reply(conn, r);
    conn.sock.close();
  };

  // --- listeners ---------------------------------------------------------
  Socket unix_listener, tcp_listener;
  try {
    unix_listener = listen_unix(opts_.socket_path);
    set_nonblocking(unix_listener, true);
    if (opts_.tcp_port >= 0) {
      tcp_listener = listen_tcp(static_cast<std::uint16_t>(opts_.tcp_port));
      set_nonblocking(tcp_listener, true);
      const std::uint16_t port = local_port(tcp_listener);
      atomic_write_file((std::filesystem::path(daemon_dir(dir)) / "tcp.port")
                            .string(),
                        std::to_string(port) + "\n", "sweepd-port");
      log << "listening on " << opts_.socket_path << " and 127.0.0.1:"
          << port << "\n";
    } else {
      log << "listening on " << opts_.socket_path << "\n";
    }
  } catch (const std::exception& e) {
    report.error = e.what();
    log << report.error << "\n";
    return report;
  }

  load_queue();

  log << "amsweepd: " << opts_.workers << " worker slot(s), per-point "
      << "retries " << opts_.retries << "\n";

  // --- serving loop ------------------------------------------------------
  const auto has_batch = [&](std::uint64_t id) {
    const auto it = jobs.find(id);
    return it != jobs.end() && !it->second.batch_queue.empty();
  };
  const auto offer_to = [&](Slot& s, std::size_t w, std::uint64_t jid) {
    Job& job = jobs.at(jid);
    WorkLease lease = std::move(job.batch_queue.front());
    job.batch_queue.pop_front();
    lease.id = next_lease_id++;
    LeaseOffer off;
    off.lease = lease;
    off.plan_path = job_spec_path(dir, jid);
    off.store_path = lease_store_path(s.lease);
    off.seed_store_path = namespace_store_path(dir, job.ns);
    write_lease_offer(s.lease, off);
    s.current = std::move(lease);
    s.has_current = true;
    s.job = jid;
    ++job.outstanding;
    log << "worker " << w << ": lease " << s.current.id << " -> job " << jid
        << " (" << s.current.points.size() << " point(s))\n";
  };
  const auto requeue_current = [&](Slot& s, std::size_t w) {
    const auto it = jobs.find(s.job);
    if (it != jobs.end()) {
      Job& job = it->second;
      --job.outstanding;
      if (!job.terminal()) {
        std::vector<std::size_t> survivors;
        std::size_t dead = 0;
        for (const std::size_t p : s.current.points) {
          if (++job.failures[p] > opts_.retries)
            ++dead;
          else
            survivors.push_back(p);
        }
        if (dead > 0) {
          fail_job(job, std::to_string(dead) +
                            " point(s) exhausted their retry budget");
        } else if (!survivors.empty()) {
          // Bisect on requeue, like the orchestrator: repeated crashes
          // home in on a poison point instead of re-charging the whole
          // batch every time.
          const std::size_t half = survivors.size() / 2;
          const double per_point =
              s.current.cost /
              static_cast<double>(std::max<std::size_t>(
                  s.current.points.size(), 1));
          WorkLease front_half, back_half;
          front_half.points.assign(survivors.begin(),
                                   survivors.begin() + half);
          back_half.points.assign(survivors.begin() + half, survivors.end());
          for (auto* part : {&back_half, &front_half}) {
            if (part->empty()) continue;
            part->cost =
                per_point * static_cast<double>(part->points.size());
            job.batch_queue.push_front(std::move(*part));
          }
          log << "worker " << w << ": requeued lease " << s.current.id
              << " for job " << s.job << "\n";
        }
      }
    }
    s.has_current = false;
    s.current = WorkLease{};
  };

  while (true) {
    // Acquire pairs with request_drain()'s release store (see daemon.hpp).
    const bool draining = drain_.load(std::memory_order_acquire);
    bool progressed = false;

    // Accept pending connections on both listeners.
    for (const Socket* listener : {&unix_listener, &tcp_listener}) {
      if (!listener->valid()) continue;
      try {
        while (auto accepted = accept_connection(*listener)) {
          set_nonblocking(*accepted, true);
          set_io_timeout(*accepted, opts_.client_io_timeout_seconds);
          conns.push_back(std::make_unique<Conn>(std::move(*accepted),
                                                 opts_.max_frame_bytes));
          progressed = true;
        }
      } catch (const std::exception& e) {
        log << "accept failed: " << e.what() << "\n";
      }
    }

    // Pump every connection: read what arrived, handle complete frames.
    for (auto& conn : conns) {
      if (!conn->sock.valid()) continue;
      char buf[4096];
      bool eof = false;
      for (;;) {
        const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
          conn->reader.feed(buf, static_cast<std::size_t>(n));
          progressed = true;
          continue;
        }
        if (n == 0) eof = true;
        break;  // EAGAIN/EWOULDBLOCK or error or EOF
      }
      while (auto frame = conn->reader.next()) {
        if (!conn->sock.valid()) break;
        handle_frame(*conn, *frame);
        progressed = true;
      }
      if (conn->sock.valid() && conn->reader.failed()) {
        // Garbage, wrong version, oversized prefix: one connection's
        // clean error. Other tenants' queued plans are untouched.
        ++report.protocol_errors;
        log << "connection failed: " << conn->reader.error() << "\n";
        DaemonReply r;
        r.error = conn->reader.error();
        send_reply(*conn, r);
        conn->sock.close();
        progressed = true;
      } else if (conn->sock.valid() && eof) {
        if (conn->reader.pending_bytes() > 0) {
          ++report.protocol_errors;
          log << "connection closed mid-frame (truncated submit?)\n";
        }
        conn->sock.close();
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return !c->sock.valid();
                               }),
                conns.end());

    // Admit queued jobs (oldest first) while a fleet exists.
    if (opts_.workers > 0 && !draining)
      for (auto& [id, job] : jobs)
        if (job.state == JobState::kQueued && !job.admitted) {
          admit_job(job);
          progressed = true;
        }

    // Fill worker slots: fair-share pick across jobs with pending work.
    for (std::size_t w = 0; w < slots.size(); ++w) {
      Slot& s = slots[w];
      if (s.live || draining) continue;
      const auto jid = scheduler.pick(has_batch);
      if (!jid) break;  // nobody has pending batches
      std::error_code ec;
      std::filesystem::remove(s.lease, ec);
      std::filesystem::remove(lease_ack_path(s.lease), ec);
      std::filesystem::remove(lease_heartbeat_path(s.lease), ec);
      offer_to(s, w, *jid);
      auto argv = opts_.worker_command;
      argv.push_back("--lease");
      argv.push_back(s.lease);
      try {
        Subprocess::Options spawn_opts;
        spawn_opts.stdout_path = s.lease + ".log";
        spawn_opts.new_process_group = true;
        s.proc = Subprocess::spawn(argv, spawn_opts);
      } catch (const std::exception& e) {
        // Unspawnable worker command: nothing will ever run. Fail the
        // job holding the lease; the operator fixes the command.
        log << "worker " << w << ": " << e.what() << "\n";
        const auto it = jobs.find(s.job);
        requeue_current(s, w);
        if (it != jobs.end() && !it->second.terminal())
          fail_job(it->second,
                   std::string("worker command unspawnable: ") + e.what());
        continue;
      }
      s.start = Clock::now();
      s.watch = BeatWatch{};
      s.watch.last_progress = s.start;
      s.stalled = false;
      s.done_offered = false;
      if (s.ever_spawned) ++s.respawns;
      s.ever_spawned = true;
      s.live = true;
      progressed = true;
      log << "worker " << w << ": launched (pid " << s.proc.pid() << ")\n";
    }

    // Poll the fleet.
    bool any_live = false;
    for (std::size_t w = 0; w < slots.size(); ++w) {
      Slot& s = slots[w];
      if (!s.live) continue;
      s.watch.observe(lease_heartbeat_path(s.lease));
      if (!s.stalled &&
          s.watch.stalled(opts_.stall_timeout_seconds, s.start)) {
        log << "worker " << w << ": " << s.watch.describe(s.start)
            << " — killing pid " << s.proc.pid() << "\n";
        s.stalled = true;
        s.proc.kill();
      }

      const auto acks = read_lease_acks(lease_ack_path(s.lease));
      const LeaseAck* ack = nullptr;
      if (acks && s.has_current)
        for (const LeaseAck& a : acks->acks)
          if (a.lease_id == s.current.id) ack = &a;
      if (ack != nullptr) {
        progressed = true;
        s.watch.last_progress = Clock::now();
        s.busy_seconds += ack->wall_seconds;
        s.batches += 1;
        s.points += ack->points;
        report.engine_runs += ack->executed;
        const auto it = jobs.find(s.job);
        if (it != jobs.end()) {
          Job& job = it->second;
          --job.outstanding;
          job.executed += ack->executed;
          for (const std::size_t p : s.current.points)
            if (p < job.point_done.size() && !job.point_done[p]) {
              job.point_done[p] = true;
              ++job.done_points;
            }
          queue_dirty = true;
          log << "worker " << w << ": lease " << s.current.id << " done ("
              << ack->points << " point(s), " << ack->executed
              << " engine run(s), " << fmt_seconds(ack->wall_seconds)
              << " s)\n";
          s.has_current = false;
          s.current = WorkLease{};
          if (job.state == JobState::kRunning &&
              job.done_points == job.points && job.outstanding == 0 &&
              job.batch_queue.empty())
            finalize_job(job);
        } else {
          s.has_current = false;
          s.current = WorkLease{};
        }
      }

      if (s.proc.running()) {
        if (!s.has_current && !s.done_offered) {
          // Draining dispatches nothing new: in-flight leases finish,
          // queued batches persist for the next daemon to resume.
          if (const auto jid = draining ? std::optional<std::uint64_t>{}
                                        : scheduler.pick(has_batch)) {
            offer_to(s, w, *jid);
            progressed = true;
          } else if (draining) {
            WorkLease done;
            done.id = next_lease_id++;
            LeaseOffer off;
            off.lease = done;
            off.done = true;
            write_lease_offer(s.lease, off);
            s.done_offered = true;
            progressed = true;
          }
          // Otherwise: leave the acked offer in place; an idle worker
          // polls it ("no new work yet") until a submission arrives.
        }
        any_live = true;
        continue;
      }

      // Process exited; the ack block above already judged any receipt
      // it wrote on the way out.
      progressed = true;
      s.live = false;
      // Already reaped (running() returned false); wait() hands back the
      // cached status instead of dereferencing the optional unchecked.
      const ExitStatus status = s.proc.wait();
      if (!status.signaled && status.code == 2) {
        // Usage rejection: this worker cannot run this offer, and no
        // retry will change that — but unlike the one-shot
        // orchestrator, the daemon fails only the job holding the
        // lease; other tenants keep their fleet.
        const auto it = jobs.find(s.job);
        const bool had = s.has_current;
        if (had) {
          if (it != jobs.end()) --it->second.outstanding;
          s.has_current = false;
          s.current = WorkLease{};
        }
        if (had && it != jobs.end() && !it->second.terminal())
          fail_job(it->second, "worker rejected the lease (" +
                                   status.describe() + ") — see " + s.lease +
                                   ".log");
        else
          log << "worker " << w << ": " << status.describe()
              << " while idle\n";
      } else if (s.has_current) {
        log << "worker " << w << ": " << status.describe()
            << " holding lease " << s.current.id << "\n";
        requeue_current(s, w);
      } else if (status.success() && s.done_offered) {
        log << "worker " << w << ": drained in "
            << fmt_seconds(seconds_since(s.start)) << " s (" << s.batches
            << " batch(es), " << fmt_seconds(s.busy_seconds) << " s busy)\n";
      } else {
        log << "worker " << w << ": " << status.describe()
            << " while idle\n";
      }
    }

    if (draining && !any_live) break;

    if (queue_dirty) {
      try {
        write_queue();
      } catch (const std::exception& e) {
        log << "queue checkpoint failed: " << e.what() << "\n";
      }
    }
    if (!progressed)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.poll_seconds));
  }

  // --- drain epilogue ----------------------------------------------------
  // Every still-connected waiter (and any future submitter who raced the
  // drain) gets an explicit retry-later, never a silent hang-up.
  for (auto& conn : conns) {
    if (!conn->sock.valid()) continue;
    if (conn->waiting) {
      DaemonReply r;
      r.retry = true;
      const auto it = jobs.find(conn->waiting_job);
      if (it != jobs.end()) {
        r = reply_for(it->second);
        r.ok = false;
        r.retry = true;
      }
      r.error = "daemon drained before the job finished; "
                "resubmit or wait after restart";
      send_reply(*conn, r);
    }
    conn->sock.close();
  }

  try {
    write_queue();
    report.clean_exit = true;
  } catch (const std::exception& e) {
    report.error = std::string("queue persist failed: ") + e.what();
    log << report.error << "\n";
  }

  for (const auto& [id, job] : jobs) {
    DaemonJobSummary s;
    s.id = id;
    s.ns = job.ns;
    s.state = job.state;
    s.points = job.points;
    s.done_points = job.done_points;
    s.executed = job.executed;
    s.error = job.error;
    report.jobs.push_back(std::move(s));
  }

  try {
    std::ostringstream out;
    out << "#am-sweepd-manifest v1\n";
    out << "host\t" << interfere::HostIdentity::detect().fingerprint()
        << '\n';
    out << "socket\t" << opts_.socket_path << '\n';
    out << "workers\t" << opts_.workers << '\n';
    out << "status\t" << (report.clean_exit ? "drained" : "failed") << '\n';
    out << "jobs_accepted\t" << report.jobs_accepted << '\n';
    out << "jobs_done\t" << report.jobs_done << '\n';
    out << "jobs_failed\t" << report.jobs_failed << '\n';
    out << "engine_runs\t" << report.engine_runs << '\n';
    out << "protocol_errors\t" << report.protocol_errors << '\n';
    for (const auto& j : report.jobs)
      out << "job\t" << j.id << '\t' << j.ns << '\t'
          << job_state_name(j.state) << '\t' << j.points << '\t'
          << j.done_points << '\t' << j.executed << '\t' << j.error << '\n';
    double busy_max = 0.0, busy_sum = 0.0;
    std::size_t busy_n = 0;
    for (std::size_t w = 0; w < slots.size(); ++w) {
      const Slot& s = slots[w];
      if (!s.ever_spawned) continue;
      out << "worker\t" << w << '\t' << fmt_seconds(s.busy_seconds) << '\t'
          << s.batches << '\t' << s.points << '\t' << s.respawns << '\n';
      busy_max = std::max(busy_max, s.busy_seconds);
      busy_sum += s.busy_seconds;
      ++busy_n;
    }
    if (busy_n > 0 && busy_sum > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f",
                    busy_max / (busy_sum / static_cast<double>(busy_n)));
      out << "busy_max_over_mean\t" << buf << '\n';
    }
    atomic_write_file(manifest_path(dir), out.str(), "sweepd-manifest");
    log << "manifest: " << manifest_path(dir) << "\n";
  } catch (const std::exception& e) {
    log << "manifest write failed: " << e.what() << "\n";
  }

  std::error_code ec;
  std::filesystem::remove(opts_.socket_path, ec);
  log << "drained cleanly\n";
  return report;
}

DaemonWorkerReport run_daemon_worker(const DaemonWorkerOptions& opts,
                                     std::ostream& log) {
  if (opts.lease_path.empty())
    throw std::invalid_argument("daemon worker: --lease path is required");

  struct CachedPlan {
    PlanSpec spec;
    ExperimentPlan plan;
  };
  std::map<std::string, CachedPlan> plans;

  HeartbeatWriter heartbeat(lease_heartbeat_path(opts.lease_path));
  DaemonWorkerReport report;
  std::optional<std::uint64_t> last_acked;
  auto last_activity = Clock::now();
  for (;;) {
    const auto offer = read_lease_offer(opts.lease_path);
    const bool fresh =
        offer && (!last_acked || offer->lease.id != *last_acked);
    if (!fresh) {
      if (opts.idle_timeout_seconds > 0.0 &&
          seconds_since(last_activity) > opts.idle_timeout_seconds)
        throw std::runtime_error("daemon worker: no offer for " +
                                 std::to_string(opts.idle_timeout_seconds) +
                                 " s — daemon gone?");
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts.poll_seconds));
      continue;
    }
    last_activity = Clock::now();
    if (offer->done) {
      log << "daemon queue drained: " << report.leases << " lease(s), "
          << report.points << " point(s), " << report.executed
          << " engine run(s)\n";
      return report;
    }

    if (!opts.test_crash_marker.empty() &&
        std::filesystem::exists(opts.test_crash_marker)) {
      // Deterministic fault injection: the first worker to claim a
      // batch while the marker exists consumes it and dies mid-lease.
      std::error_code ec;
      std::filesystem::remove(opts.test_crash_marker, ec);
      log << "test crash marker claimed — raising SIGKILL\n";
      log.flush();
      std::raise(SIGKILL);
    }

    if (offer->plan_path.empty() || offer->store_path.empty())
      throw std::invalid_argument(
          "daemon worker: offer carries no plan/store path — not a daemon "
          "scheduler?");

    auto cached = plans.find(offer->plan_path);
    if (cached == plans.end()) {
      std::ifstream in(offer->plan_path);
      if (!in)
        throw std::runtime_error("daemon worker: cannot read plan " +
                                 offer->plan_path);
      std::stringstream text;
      text << in.rdbuf();
      CachedPlan cp;
      cp.spec = parse_plan_spec(text.str());  // invalid_argument = usage
      cp.plan = build_plan(cp.spec);
      cached = plans.emplace(offer->plan_path, std::move(cp)).first;
    }
    const CachedPlan& cp = cached->second;

    const auto t0 = Clock::now();
    ResultStore store = ResultStore::load_or_empty(offer->store_path);
    if (!offer->seed_store_path.empty())
      store.merge(ResultStore::load_or_empty(offer->seed_store_path));

    // Per-point checkpointing (throttled): a SIGKILL mid-batch loses at
    // most a second of finished engine runs, so the daemon's requeue
    // re-runs mostly cache hits.
    auto last_save = Clock::now();
    bool first_save = true;
    const std::string store_path = offer->store_path;
    SweepRunner runner = make_runner(
        cp.spec, [&last_save, &first_save, &store_path](const ResultStore& s) {
          if (first_save || seconds_since(last_save) >= 1.0) {
            s.save(store_path);
            last_save = Clock::now();
            first_save = false;
          }
        });

    std::size_t executed = 0;
    runner.run_points(cp.plan, nullptr, &store, offer->lease.points,
                      &executed);
    store.save(store_path);  // durable strictly before the receipt
    LeaseAck ack;
    ack.lease_id = offer->lease.id;
    ack.points = offer->lease.points.size();
    ack.executed = executed;
    ack.wall_seconds = seconds_since(t0);
    write_lease_acks(lease_ack_path(opts.lease_path), {{ack}, std::nullopt});

    last_activity = Clock::now();
    last_acked = offer->lease.id;
    report.leases += 1;
    report.points += ack.points;
    report.executed += executed;
    log << "lease " << offer->lease.id << ": " << ack.points << " point(s), "
        << executed << " engine run(s)\n";
  }
}

DaemonClient DaemonClient::connect_unix(const std::string& socket_path,
                                        double timeout_seconds) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      Socket sock = am::connect_unix(socket_path);
      set_io_timeout(sock, 30.0);
      return DaemonClient(std::move(sock));
    } catch (const SocketError&) {
      if (seconds_since(t0) > timeout_seconds) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

DaemonClient DaemonClient::connect_tcp(std::uint16_t port,
                                       double timeout_seconds) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      Socket sock = am::connect_tcp(port);
      set_io_timeout(sock, 30.0);
      return DaemonClient(std::move(sock));
    } catch (const SocketError&) {
      if (seconds_since(t0) > timeout_seconds) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

DaemonReply DaemonClient::roundtrip(std::uint16_t type,
                                    const std::string& payload) {
  write_frame(sock_, {type, payload});
  const Frame frame = read_frame(sock_);
  if (frame.type != kFrameReply)
    throw std::runtime_error("daemon sent frame type " +
                             std::to_string(frame.type) +
                             " where a reply was expected");
  const auto reply = parse_reply(frame.payload);
  if (!reply) throw std::runtime_error("daemon sent an unparseable reply");
  return *reply;
}

DaemonReply DaemonClient::submit(const std::string& ns,
                                 const std::string& plan_text) {
  return roundtrip(kFrameSubmit, "ns\t" + ns + "\n" + plan_text);
}

DaemonReply DaemonClient::status(std::uint64_t job) {
  return roundtrip(kFrameStatus, "job\t" + std::to_string(job));
}

DaemonReply DaemonClient::cancel(std::uint64_t job) {
  return roundtrip(kFrameCancel, "job\t" + std::to_string(job));
}

DaemonReply DaemonClient::wait(std::uint64_t job, double timeout_seconds) {
  set_io_timeout(sock_, timeout_seconds);  // 0 = block indefinitely
  const DaemonReply reply =
      roundtrip(kFrameWait, "job\t" + std::to_string(job));
  set_io_timeout(sock_, 30.0);
  return reply;
}

void DaemonClient::send_raw(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(sock_.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError("send_raw failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace am::measure
