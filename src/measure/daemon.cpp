#include "measure/daemon.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/line_doc.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"
#include "measure/worker_fleet.hpp"

namespace am::measure {

namespace {

using Clock = std::chrono::steady_clock;

std::optional<JobState> parse_job_state(const std::string& s) {
  for (const JobState st :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kCancelled})
    if (s == job_state_name(st)) return st;
  return std::nullopt;
}

constexpr const char* kQueueHeader = "#am-sweepd-queue v1";
constexpr const char* kReplyHeader = "#am-reply v1";
constexpr const char* kManifestHeader = "#am-sweepd-manifest v1";

/// The value of a frame payload's one `<key>\t<value>` line; nullopt
/// when the line is not that.
std::optional<std::string> keyed_value(const std::string& line,
                                       const char* key) {
  LineReader in("\n" + line);  // a headerless one-record document
  try {
    if (in.next() && in.size() == 2 && in.key() == key) return in.str(1);
  } catch (const LineError&) {  // a stray CR: not such a line either
  }
  return std::nullopt;
}

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
  LineWriter doc(kReplyHeader);
  doc.row("ok", reply.ok)
      .row("retry", reply.retry)
      .row("job", reply.job)
      .row("state", job_state_name(reply.state))
      .row("points", reply.points)
      .row("done", reply.done_points)
      .row("executed", reply.executed);
  if (!reply.error.empty()) doc.row("error", one_line(reply.error));
  return doc.str();
}

std::optional<DaemonReply> parse_reply(const std::string& text) {
  LineReader in(text);
  if (in.header() != kReplyHeader) return std::nullopt;
  DaemonReply reply;
  bool saw_ok = false;
  try {
    while (in.next()) {
      const std::string& key = in.key();
      if (key == "ok") {
        reply.ok = in.flag(1);
        saw_ok = true;
      } else if (key == "retry") {
        reply.retry = in.flag(1);
      } else if (key == "job") {
        reply.job = in.u64(1);
      } else if (key == "state") {
        const auto st = parse_job_state(in.str(1));
        if (!st) return std::nullopt;
        reply.state = *st;
      } else if (key == "points") {
        reply.points = static_cast<std::size_t>(in.u64(1));
      } else if (key == "done") {
        reply.done_points = static_cast<std::size_t>(in.u64(1));
      } else if (key == "executed") {
        reply.executed = static_cast<std::size_t>(in.u64(1));
      } else if (key == "error") {
        reply.error = in.str(1);
      }
      // Unknown keys are ignored: replies may grow fields.
    }
  } catch (const LineError&) {
    return std::nullopt;
  }
  if (!saw_ok) return std::nullopt;
  return reply;
}

void FairShareScheduler::add(std::uint64_t job) {
  if (std::find(order_.begin(), order_.end(), job) == order_.end())
    order_.push_back(job);
}

void FairShareScheduler::remove(std::uint64_t job) { std::erase(order_, job); }

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
  LeaseBook book;  // sized to the plan; batches once admitted
  std::unique_ptr<ExperimentPlan> plan;
  std::unique_ptr<SweepRunner> runner;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }

  JobStatus status() const {
    return {id, ns, state, book.points(), book.done_points, book.executed,
            error};
  }
};

DaemonReply reply_for(const JobStatus& job) {
  return {.ok = job.state != JobState::kFailed, .job = job.id,
          .state = job.state, .points = job.points,
          .done_points = job.done_points, .executed = job.executed,
          .error = job.error};
}

WorkerFleetOptions fleet_options(const SweepDaemonOptions& opts) {
  WorkerFleetOptions fleet_opts;
  for (std::size_t w = 0; w < opts.workers; ++w)
    fleet_opts.lease_paths.push_back(
        (std::filesystem::path(SweepDaemon::daemon_dir(opts.results_dir)) /
         ("wrk" + std::to_string(w) + ".lease"))
            .string());
  fleet_opts.argv = [&opts](const std::string& lease_path) {
    auto argv = opts.worker_command;
    argv.insert(argv.end(), {"--lease", lease_path});
    return argv;
  };
  fleet_opts.stall_timeout_seconds = opts.stall_timeout_seconds;
  return fleet_opts;
}

/// The daemon's serving state and its handlers, one per step of
/// SweepDaemon::run's loop. Its fleet policy hands out fair-share offers
/// and turns acks and worker exits into job progress.
class Server {
 public:
  Server(const SweepDaemonOptions& opts, const std::atomic<bool>& drain,
         DaemonReport& report, std::ostream& log)
      : opts_(opts),
        dir_(opts.results_dir),
        drain_(drain),
        report_(report),
        log_(log),
        fleet_(fleet_options(opts)) {
    // The fleet policy. An offer is the fair-share pick's next batch; it
    // names the job's plan and seeds the worker's cache from the
    // namespace store. With no pending batch anywhere, an idle worker
    // keeps polling its last offer until a submission arrives.
    policy_.next = [this](std::size_t, bool) -> std::optional<OwnedOffer> {
      if (draining_) return std::nullopt;
      const auto jid = scheduler_.pick([this](std::uint64_t id) {
        const Job* job = find(id);
        return job != nullptr && !job->book.pending.empty();
      });
      if (!jid) return std::nullopt;
      Job& job = jobs_.at(*jid);
      OwnedOffer next;
      next.offer.lease = job.book.take();
      next.offer.plan_path = SweepDaemon::job_spec_path(dir_, job.id);
      next.offer.seed_store_path =
          SweepDaemon::namespace_store_path(dir_, job.ns);
      next.owner = job.id;
      return next;
    };
    policy_.offered = [this](std::size_t w, const HeldLease& held) {
      log_ << "worker " << w << ": lease " << held.lease.id << " -> job "
           << held.owner << " (" << held.lease.points.size()
           << " point(s))\n";
    };
    policy_.acked = [this](std::size_t, const HeldLease& held,
                           const LeaseAck& ack) {
      report_.engine_runs += ack.executed;
      Job* job = find(held.owner);
      if (job == nullptr) return;
      job->book.ack(held.lease, ack.executed);
      queue_dirty_ = true;
      if (job->state == JobState::kRunning && job->book.finished())
        finalize_job(*job);
    };
    policy_.exited = [this](std::size_t w, const WorkerExit& exit) {
      auto held = exit.held.rbegin();
      if (!exit.status.signaled && exit.status.code == kWorkerExitUsage &&
          held != exit.held.rend()) {
        // Usage rejection of the newest offer, whose plan the worker was
        // resolving: no retry will change that. Unlike the one-shot
        // orchestrator, the daemon fails only that job; other tenants
        // keep their fleet, and the slot's older leases requeue as a
        // crash.
        Job* job = find(held->owner);
        if (job != nullptr && !job->terminal())
          fail_job(*job, "worker rejected the lease (" +
                             exit.status.describe() + ") — see " +
                             fleet_.lease_path(w) + ".log");
        ++held;
      }
      // Newest first, so each job's earliest lease ends up at the front.
      for (; held != exit.held.rend(); ++held) requeue(*held, w);
    };
    policy_.unspawnable = [this](std::size_t, std::uint64_t owner,
                                 const std::string& why) {
      // Nothing will ever run: fail the job holding the lease; the
      // operator fixes the command.
      fail_job(jobs_.at(owner), "worker command unspawnable: " + why);
    };
  }
  Server(const Server&) = delete;  // the policy's lambdas hold `this`
  Server& operator=(const Server&) = delete;

  bool listen() {
    try {
      unix_listener_ = listen_unix(opts_.socket_path);
      set_nonblocking(unix_listener_, true);
      if (opts_.tcp_port >= 0) {
        tcp_listener_ = listen_tcp(static_cast<std::uint16_t>(opts_.tcp_port));
        set_nonblocking(tcp_listener_, true);
        const std::uint16_t port = local_port(tcp_listener_);
        atomic_write_file(
            (std::filesystem::path(SweepDaemon::daemon_dir(dir_)) / "tcp.port")
                .string(),
            std::to_string(port) + "\n", "sweepd-port");
        log_ << "listening on " << opts_.socket_path << " and 127.0.0.1:"
             << port << "\n";
      } else {
        log_ << "listening on " << opts_.socket_path << "\n";
      }
      return true;
    } catch (const std::exception& e) {
      report_.error = e.what();
      log_ << report_.error << "\n";
      return false;
    }
  }

  void load_queue() {
    const std::string path = SweepDaemon::queue_path(dir_);
    auto in = LineReader::open(path);
    if (!in) return;
    if (in->header() != kQueueHeader) {
      log_ << "ignoring unreadable queue file " << path << "\n";
      return;
    }
    std::size_t resumed = 0;
    while (true) {
      try {
        if (!in->next()) break;
        if (in->key() == "next_job") {
          next_job_id_ = std::max(next_job_id_, in->u64(1));
        } else if (in->key() == "job") {
          Job job;
          job.id = in->u64(1);
          job.ns = in->str(2);
          const auto st = parse_job_state(in->str(3));
          if (!st || !SweepDaemon::valid_namespace(job.ns))
            throw std::invalid_argument("malformed job line");
          job.state = *st;
          job.book = LeaseBook(static_cast<std::size_t>(in->u64(4)));
          job.book.executed = static_cast<std::size_t>(in->u64(5));
          if (in->size() > 6) job.error = in->str(6);
          if (job.state == JobState::kQueued) ++resumed;
          jobs_.emplace(job.id, std::move(job));
        } else if (in->key() == "done") {
          Job* job = find(in->u64(1));
          for (std::size_t i = 2; job != nullptr && i < in->size(); ++i) {
            const std::uint64_t p = in->u64(i);
            if (p < job->book.points() && !job->book.done[p]) {
              job->book.done[p] = true;
              ++job->book.done_points;
            }
          }
        }
      } catch (const std::exception&) {  // or a count no plan could hold
        log_ << "queue file: skipping a malformed line\n";
      }
    }
    if (!jobs_.empty())
      log_ << "resumed queue: " << jobs_.size() << " job(s), " << resumed
           << " pending\n";
  }

  bool accept() {
    bool progressed = false;
    for (const Socket* listener : {&unix_listener_, &tcp_listener_}) {
      if (!listener->valid()) continue;
      try {
        while (auto accepted = accept_connection(*listener)) {
          set_nonblocking(*accepted, true);
          set_io_timeout(*accepted, opts_.client_io_timeout_seconds);
          conns_.push_back(std::make_unique<Conn>(std::move(*accepted),
                                                  opts_.max_frame_bytes));
          progressed = true;
        }
      } catch (const std::exception& e) {
        log_ << "accept failed: " << e.what() << "\n";
      }
    }
    return progressed;
  }

  bool pump() {
    bool progressed = false;
    for (auto& conn : conns_) {
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
        ++report_.protocol_errors;
        log_ << "connection failed: " << conn->reader.error() << "\n";
        DaemonReply r;
        r.error = conn->reader.error();
        send_reply(*conn, r);
        conn->sock.close();
        progressed = true;
      } else if (conn->sock.valid() && eof) {
        if (conn->reader.pending_bytes() > 0) {
          ++report_.protocol_errors;
          log_ << "connection closed mid-frame (truncated submit?)\n";
        }
        conn->sock.close();
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return !c->sock.valid();
                                }),
                 conns_.end());
    return progressed;
  }

  bool admit() {
    if (opts_.workers == 0) return false;
    bool progressed = false;
    // Oldest first; admission always moves a job out of kQueued.
    for (auto& [id, job] : jobs_)
      if (job.state == JobState::kQueued) {
        admit_job(job);
        progressed = true;
      }
    return progressed;
  }

  /// Draining dispatches nothing new: in-flight leases finish, queued
  /// batches persist for the next daemon to resume, and a worker that
  /// wants an offer is told `done`.
  FleetPass fleet_pass(bool draining) {
    draining_ = draining;
    policy_.done_when_dry = draining;
    return fleet_.pass(policy_, log_);
  }

  void persist() {
    if (!queue_dirty_) return;
    try {
      write_queue();
    } catch (const std::exception& e) {
      log_ << "queue checkpoint failed: " << e.what() << "\n";
    }
  }

  /// The drain epilogue: every still-connected waiter (and any future
  /// submitter who raced the drain) gets an explicit retry-later, never a
  /// silent hang-up; then the queue, the report and the manifest.
  void drain() {
    for (auto& conn : conns_) {
      if (!conn->sock.valid()) continue;
      if (conn->waiting) {
        DaemonReply r;
        if (const Job* job = find(conn->waiting_job)) {
          r = reply_for(job->status());
          r.ok = false;
        }
        r.retry = true;
        r.error = "daemon drained before the job finished; "
                  "resubmit or wait after restart";
        send_reply(*conn, r);
      }
      conn->sock.close();
    }

    try {
      write_queue();
      report_.clean_exit = true;
    } catch (const std::exception& e) {
      report_.error = std::string("queue persist failed: ") + e.what();
      log_ << report_.error << "\n";
    }
    for (const auto& [id, job] : jobs_) report_.jobs.push_back(job.status());
    try {
      write_manifest();
    } catch (const std::exception& e) {
      log_ << "manifest write failed: " << e.what() << "\n";
    }

    std::error_code ec;
    std::filesystem::remove(opts_.socket_path, ec);
    log_ << "drained cleanly\n";
  }

 private:
  Job* find(std::uint64_t id) {
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second;
  }

  /// A lease its worker died holding: the owning job takes it back with
  /// one failure charged to each point, or fails once a point's budget is
  /// gone.
  void requeue(const HeldLease& held, std::size_t w) {
    Job* job = find(held.owner);
    if (job == nullptr || job->terminal()) return;
    const std::size_t dead =
        job->book.requeue(held.lease, opts_.retries, w, log_);
    if (dead > 0)
      fail_job(*job,
               std::to_string(dead) + " point(s) exhausted their retry budget");
  }

  /// Builds the executable plan from the job's durable spec and cuts its
  /// *pending* points into fair-share batches. Called once per job when
  /// worker slots exist.
  void admit_job(Job& job) {
    try {
      const std::string path = SweepDaemon::job_spec_path(dir_, job.id);
      std::ifstream in(path);
      if (!in) throw std::invalid_argument("plan spec file missing: " + path);
      std::stringstream text;
      text << in.rdbuf();
      const PlanSpec spec = parse_plan_spec(text.str());
      job.plan = std::make_unique<ExperimentPlan>(build_plan(spec));
      job.runner = std::make_unique<SweepRunner>(make_runner(spec));
      if (job.book.points() != job.plan->size())
        job.book = LeaseBook(job.plan->size());
    } catch (const std::exception& e) {
      fail_job(job, std::string("plan rejected: ") + e.what());
      return;
    }
    job.state = JobState::kRunning;
    if (job.book.done_points == job.book.points()) {
      finalize_job(job);
      return;
    }
    // Cost-ordered slices over the pending points, queued costliest
    // first; measured run times in the namespace store (or seeded caches)
    // sharpen the order.
    std::vector<double> costs;
    try {
      const ResultStore ns = ResultStore::load_or_empty(
          SweepDaemon::namespace_store_path(dir_, job.ns));
      costs = job.runner->estimate_costs(*job.plan, &ns);
    } catch (const std::exception&) {
      costs.clear();  // cost model is advisory; uniform is always safe
    }
    const std::size_t pending = job.book.cut(
        opts_.batches_per_job != 0 ? opts_.batches_per_job : opts_.workers * 2,
        costs);
    scheduler_.add(job.id);
    queue_dirty_ = true;
    log_ << "job " << job.id << " (" << job.ns << "): admitted — " << pending
         << " pending point(s) in " << job.book.pending.size()
         << " batch(es)\n";
  }

  /// Merges exactly this job's plan records into its namespace store.
  /// Worker slot stores are shared scratch (they accumulate whatever
  /// leases landed on the slot, seeded caches included); the filter by
  /// the job's own ScenarioKeys is what keeps each namespace store
  /// byte-identical to a direct serial run of that namespace's plans.
  void finalize_job(Job& job) {
    try {
      const std::string ns_path =
          SweepDaemon::namespace_store_path(dir_, job.ns);
      ResultStore ns = ResultStore::load_or_empty(ns_path);
      std::vector<ResultStore> scratch;
      for (const auto& entry : std::filesystem::directory_iterator(
               SweepDaemon::daemon_dir(dir_))) {
        const std::string name = entry.path().filename().string();
        // All slot stores ever written under this results dir — a
        // resumed job's records may live in a previous daemon's slots.
        if (name.size() > 10 && name.substr(name.size() - 10) == ".lease.tsv")
          scratch.push_back(ResultStore::load_or_empty(entry.path().string()));
      }
      for (std::size_t p = 0; p < job.book.points(); ++p) {
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
      ++report_.jobs_done;
      log_ << "job " << job.id << " (" << job.ns << "): done — "
           << job.book.points() << " point(s), " << job.book.executed
           << " engine run(s) -> " << ns_path << "\n";
      end_job(job, JobState::kDone);
    } catch (const std::exception& e) {
      fail_job(job, std::string("merge failed: ") + e.what());
    }
  }

  void fail_job(Job& job, const std::string& why) {
    job.error = why;
    ++report_.jobs_failed;
    log_ << "job " << job.id << " (" << job.ns << "): failed — " << why
         << "\n";
    end_job(job, JobState::kFailed);
  }

  /// Moves a job to a terminal state: nothing more of it is dispatched,
  /// and its waiters get their reply.
  void end_job(Job& job, JobState state) {
    job.state = state;
    job.book.pending.clear();
    scheduler_.remove(job.id);
    notify_terminal(job);
    queue_dirty_ = true;
  }

  void handle_frame(Conn& conn, const Frame& frame) {
    if (frame.type == kFrameSubmit) {
      handle_submit(conn, frame);
    } else if (frame.type == kFrameStatus || frame.type == kFrameCancel ||
               frame.type == kFrameWait) {
      handle_job_request(conn, frame);
    } else {
      // Unknown request type: protocol-level, fails the connection.
      ++report_.protocol_errors;
      DaemonReply r;
      r.error = "unknown frame type " + std::to_string(frame.type);
      send_reply(conn, r);
      conn.sock.close();
    }
  }

  void handle_submit(Conn& conn, const Frame& frame) {
    DaemonReply r;
    if (drain_.load(std::memory_order_acquire)) {
      r.retry = true;
      r.error = "daemon is draining; retry after it restarts";
      return send_reply(conn, r);
    }
    Job job;
    try {
      const std::size_t nl = frame.payload.find('\n');
      const auto ns = keyed_value(frame.payload.substr(0, nl), "ns");
      if (!ns || !SweepDaemon::valid_namespace(*ns))
        throw std::invalid_argument(
            "submit payload must start with 'ns\\t<namespace>' "
            "(1-64 chars of [A-Za-z0-9_-])");
      job.ns = *ns;
      const PlanSpec spec = parse_plan_spec(
          nl == std::string::npos ? "" : frame.payload.substr(nl + 1));
      // Everything admission builds, checked before the job exists: an
      // unknown memory backend fails this submit, not a queued job.
      make_machine(spec);
      job.book = LeaseBook(build_plan(spec).size());
      job.id = next_job_id_++;
      // Canonical re-serialization: the durable spec is exactly what
      // admission (in this daemon or a resumed one) parses, not the
      // client's raw bytes.
      atomic_write_file(SweepDaemon::job_spec_path(dir_, job.id),
                        serialize_plan_spec(spec), "sweepd-plan");
    } catch (const std::exception& e) {
      r.error = e.what();
      return send_reply(conn, r);
    }
    ++report_.jobs_accepted;
    log_ << "job " << job.id << " (" << job.ns << "): accepted — "
         << job.book.points() << " point(s)\n";
    r = reply_for(job.status());
    jobs_.emplace(job.id, std::move(job));
    queue_dirty_ = true;
    send_reply(conn, r);
  }

  void handle_job_request(Conn& conn, const Frame& frame) {
    const auto value = keyed_value(frame.payload, "job");
    std::uint64_t id = 0;
    DaemonReply r;
    if (!value || !parse_u64(*value, id)) {
      r.error = "payload must be 'job\\t<id>'";
      return send_reply(conn, r);
    }
    Job* job = find(id);
    if (job == nullptr) {
      r.job = id;
      r.error = "unknown job " + std::to_string(id);
      return send_reply(conn, r);
    }
    if (frame.type == kFrameCancel && job->terminal()) {
      r = reply_for(job->status());
      r.ok = false;
      r.error = "job already " + std::string(job_state_name(job->state));
      send_reply(conn, r);
    } else if (frame.type == kFrameCancel) {
      log_ << "job " << job->id << " (" << job->ns << "): cancelled\n";
      end_job(*job, JobState::kCancelled);
      send_reply(conn, reply_for(job->status()));
    } else if (frame.type == kFrameWait && !job->terminal()) {
      conn.waiting = true;
      conn.waiting_job = id;
    } else {  // status, or a wait on a job already over
      send_reply(conn, reply_for(job->status()));
    }
  }

  void send_reply(Conn& conn, const DaemonReply& reply) {
    try {
      write_frame(conn.sock, {kFrameReply, encode_reply(reply)});
    } catch (const SocketError&) {
      conn.sock.close();  // peer gone or wedged; reaped by pump()
    }
  }

  void notify_terminal(const Job& job) {
    for (auto& conn : conns_) {
      if (!conn->sock.valid() || !conn->waiting || conn->waiting_job != job.id)
        continue;
      conn->waiting = false;
      send_reply(*conn, reply_for(job.status()));
    }
  }

  void write_queue() {
    LineWriter doc(kQueueHeader);
    doc.row("next_job", next_job_id_);
    for (const auto& [id, job] : jobs_) {
      const JobStatus s = job.status();
      // Running jobs persist as queued: their pending points re-admit on
      // the next start, their completed points ride the `done` line.
      const JobState persisted =
          s.state == JobState::kRunning ? JobState::kQueued : s.state;
      doc.row("job", s.id, s.ns, job_state_name(persisted), s.points,
              s.executed, one_line(s.error));
      if (s.done_points > 0) {
        std::vector<std::size_t> done;
        for (std::size_t p = 0; p < job.book.points(); ++p)
          if (job.book.done[p]) done.push_back(p);
        doc.row("done", s.id, done);
      }
    }
    doc.save(SweepDaemon::queue_path(dir_), "sweepd-queue");
    queue_dirty_ = false;
  }

  void write_manifest() {
    LineWriter doc(kManifestHeader);
    doc.row("host", interfere::HostIdentity::detect().fingerprint())
        .row("socket", opts_.socket_path)
        .row("workers", opts_.workers)
        .row("status", report_.clean_exit ? "drained" : "failed")
        .row("jobs_accepted", report_.jobs_accepted)
        .row("jobs_done", report_.jobs_done)
        .row("jobs_failed", report_.jobs_failed)
        .row("engine_runs", report_.engine_runs)
        .row("protocol_errors", report_.protocol_errors);
    for (const JobStatus& j : report_.jobs)
      doc.row("job", j.id, j.ns, job_state_name(j.state), j.points,
              j.done_points, j.executed, one_line(j.error));
    std::vector<WorkerStat> spawned;
    for (std::size_t w = 0; w < opts_.workers; ++w) {
      if (!fleet_.ever_spawned(w)) continue;
      const WorkerStat ws = spawned.emplace_back(fleet_.stat(w));
      doc.row("worker", w, fmt_seconds(ws.busy_seconds), ws.batches,
              ws.points, ws.respawns);
    }
    if (const auto balance = busy_max_over_mean(spawned); !balance.empty())
      doc.row("busy_max_over_mean", balance);
    doc.save(SweepDaemon::manifest_path(dir_), "sweepd-manifest");
    log_ << "manifest: " << SweepDaemon::manifest_path(dir_) << "\n";
  }

  const SweepDaemonOptions& opts_;
  const std::string& dir_;
  const std::atomic<bool>& drain_;
  DaemonReport& report_;
  std::ostream& log_;
  std::map<std::uint64_t, Job> jobs_;
  std::uint64_t next_job_id_ = 1;
  FairShareScheduler scheduler_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Socket unix_listener_, tcp_listener_;
  WorkerFleet fleet_;
  FleetPolicy policy_;
  bool draining_ = false;
  bool queue_dirty_ = false;
};

}  // namespace

DaemonReport SweepDaemon::run(std::ostream& log) {
  DaemonReport report;
  try {
    std::filesystem::create_directories(daemon_dir(opts_.results_dir));
  } catch (const std::exception& e) {
    report.error = std::string("cannot create daemon dir: ") + e.what();
    log << report.error << "\n";
    return report;
  }
  Server server(opts_, drain_, report, log);
  if (!server.listen()) return report;
  server.load_queue();
  log << "amsweepd: " << opts_.workers << " worker slot(s), per-point "
      << "retries " << opts_.retries << "\n";

  while (true) {
    // Acquire pairs with request_drain()'s release store (see daemon.hpp).
    const bool draining = drain_.load(std::memory_order_acquire);
    bool progressed = server.accept();
    progressed |= server.pump();
    if (!draining) progressed |= server.admit();
    const FleetPass pass = server.fleet_pass(draining);
    if (draining && !pass.any_live) break;
    server.persist();
    if (!progressed && !pass.progressed)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.poll_seconds));
  }
  server.drain();
  return report;
}

LeaseWorkerReport run_daemon_worker(const std::string& lease_path,
                                    std::ostream& log,
                                    const LeaseWorkerOptions& opts) {
  auto store = ResultStoreFile::for_lease("", "amsweepd", lease_path);
  struct CachedPlan {
    ExperimentPlan plan;
    SweepRunner runner;
  };
  // Parsed once per plan path: fair-share dispatch interleaves jobs on
  // one slot. std::map nodes stay put, so resolved pointers stay valid.
  std::map<std::string, CachedPlan> plans;
  const auto checkpoint = store.checkpointer();
  const auto resolve = [&](const LeaseOffer& offer) {
    if (offer.plan_path.empty())
      throw std::invalid_argument(
          "daemon worker: offer carries no plan path — not a daemon "
          "scheduler?");
    auto cached = plans.find(offer.plan_path);
    if (cached == plans.end()) {
      std::ifstream in(offer.plan_path);
      if (!in)
        throw std::runtime_error("daemon worker: cannot read plan " +
                                 offer.plan_path);
      std::stringstream text;
      text << in.rdbuf();
      const PlanSpec spec = parse_plan_spec(text.str());  // usage on throw
      cached = plans
                   .emplace(offer.plan_path,
                            CachedPlan{build_plan(spec),
                                       make_runner(spec, checkpoint)})
                   .first;
    }
    if (!offer.seed_store_path.empty())
      store.store()->seed(ResultStore::load_or_empty(offer.seed_store_path));
    return LeasePlan{&cached->second.plan, &cached->second.runner};
  };
  return run_lease_worker(resolve, nullptr, store, lease_path, log, opts);
}

namespace {

/// Retries `connect` until it succeeds or `timeout_seconds` elapses (a
/// daemon may still be binding); rethrows the last SocketError.
Socket connect_retrying(const std::function<Socket()>& connect,
                        double timeout_seconds) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      Socket sock = connect();
      set_io_timeout(sock, 30.0);
      return sock;
    } catch (const SocketError&) {
      if (seconds_since(t0) > timeout_seconds) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

}  // namespace

DaemonClient DaemonClient::connect_unix(const std::string& socket_path,
                                        double timeout_seconds) {
  return DaemonClient(connect_retrying(
      [&] { return am::connect_unix(socket_path); }, timeout_seconds));
}

DaemonClient DaemonClient::connect_tcp(std::uint16_t port,
                                       double timeout_seconds) {
  return DaemonClient(connect_retrying([&] { return am::connect_tcp(port); },
                                       timeout_seconds));
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
