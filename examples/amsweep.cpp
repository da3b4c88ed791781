// amsweep — multi-process sweep orchestrator over the lease/store
// machinery, plus the client side of the amsweepd daemon protocol.
//
// Two personalities, picked by the first argument:
//
// 1. Subcommands (first arg is a word, not a flag):
//
//      amsweep mkplan [--workloads L] [--max-cs N] [--max-bw N]
//              [--scale S] [--nodes N] [--backend B] [--seed S]
//              [--accesses N] [--compute-ops N] [--out FILE]
//      amsweep submit --socket PATH --ns NAME [--plan FILE]
//              [--wait [--timeout S]]
//      amsweep status --socket PATH --job ID
//      amsweep cancel --socket PATH --job ID
//      amsweep wait   --socket PATH --job ID [--timeout S]
//      amsweep run-local --plan FILE --out STORE.tsv
//      amsweep slice --hosts N --out DIR -- <figure driver> [flags...]
//
//    slice is the manual multi-host recipe: it probes the driver once,
//    cuts its plan into N cost-ordered slices and writes each as a
//    static lease file DIR/slice_<i>. Host i runs
//    `<driver> [flags] --results-dir R --lease DIR/slice_<i>`, which
//    saves DIR/slice_<i>.tsv and exits 0; `amresult merge` folds the
//    slice stores into R/<driver>.tsv, against which a plain driver
//    run prints the figure from cache. Exit: 0 sliced, 1 probe failed,
//    2 usage.
//
//    mkplan emits a serialized plan spec (measure/plan_wire) for a
//    synthetic-workload grid: `--workloads uni:2048,norm:4096` names
//    distributions (uni/norm/exp/tri) with buffer element counts;
//    each workload gets a baseline point plus cache-storage and
//    bandwidth interference sweeps. submit sends a plan (from --plan
//    or stdin) to an amsweepd under a tenant namespace; status/
//    cancel/wait manage the returned job id. run-local executes a
//    plan in-process, serially, into a plain store file — the
//    baseline the daemon's per-namespace stores are byte-compared
//    against. Every subcommand accepting --socket also accepts
//    --tcp PORT for a loopback-TCP daemon.
//
//    Client exit status:
//      0  success (wait: job done)
//      1  daemon reported an error / job failed or cancelled
//      2  usage
//      3  retry later: daemon draining or unreachable
//
// 2. Orchestrator mode (everything else):
//
//      amsweep --results-dir DIR [--workers N] [--batches K]
//              [--cost-model measured|uniform] [--retries K]
//              [--driver-name NAME] [--poll-seconds S]
//              [--stall-timeout S] -- <figure driver> [driver flags...]
//
//    Runs a figure driver's grid across supervised lease-worker
//    processes; the merged store is bit-identical to a direct serial
//    run. Unknown flags before the `--` are usage errors. Exit: 0
//    merged, 1 sweep failed (see manifest), 2 usage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/socket.hpp"
#include "common/line_doc.hpp"
#include "measure/daemon.hpp"
#include "measure/orchestrator.hpp"
#include "measure/plan_wire.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: amsweep --results-dir DIR [--workers N] [--batches K]\n"
      "               [--cost-model measured|uniform] [--retries K]\n"
      "               [--driver-name NAME] [--poll-seconds S]\n"
      "               [--stall-timeout S] -- <figure driver> [flags...]\n"
      "       amsweep slice --hosts N --out DIR -- <figure driver> "
      "[flags...]\n"
      "       amsweep mkplan|submit|status|cancel|wait|run-local ...\n"
      "--poll-seconds defaults to %g s\n"
      "exit: 0 ok, 1 failed, 2 usage, 3 retry later (client)\n",
      am::measure::OrchestratorOptions{}.poll_seconds);
  return 2;
}

// ---------------------------------------------------------------------------
// Daemon client subcommands

/// A typo'd flag must fail loudly, not run with defaults: call once every
/// flag the subcommand reads has been read, before anything happens.
void reject_unused(const am::Cli& cli) {
  for (const auto& flag : cli.unused())
    throw std::invalid_argument("unknown flag --" + flag);
}

/// --name as an integer in [lo, hi], `def` when absent. Digits only: a
/// sign, trailing junk or a value out of range is std::invalid_argument,
/// never a wrapped or truncated number.
std::uint64_t get_u64(const am::Cli& cli, const std::string& name,
                      std::uint64_t def, std::uint64_t lo = 0,
                      std::uint64_t hi = UINT64_MAX) {
  const auto s = cli.get(name, "");
  if (s.empty()) return def;
  std::uint64_t v = 0;
  if (!am::parse_u64(s, v) || v < lo || v > hi)
    throw std::invalid_argument("--" + name + " must be an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + s + "'");
  return v;
}

/// Connects per --socket PATH / --tcp PORT. Call it once every other flag
/// has been read: it rejects the unread ones first. Throws
/// std::invalid_argument on missing or unknown flags (usage) and
/// SocketError when nothing answers (the caller maps that to exit 3,
/// retry later).
am::measure::DaemonClient connect(const am::Cli& cli) {
  const auto timeout = cli.get_seconds("connect-timeout", 5.0);
  const auto tcp = cli.get_int("tcp", -1);
  const auto socket = cli.get("socket", "");
  reject_unused(cli);
  if (tcp >= 0) {
    if (tcp > 65535)
      throw std::invalid_argument("--tcp must be a port in [0, 65535]");
    return am::measure::DaemonClient::connect_tcp(
        static_cast<std::uint16_t>(tcp), timeout);
  }
  if (socket.empty())
    throw std::invalid_argument("--socket PATH (or --tcp PORT) is required");
  return am::measure::DaemonClient::connect_unix(socket, timeout);
}

void print_reply(const am::measure::DaemonReply& r) {
  std::cout << "job " << r.job << ": " << am::measure::job_state_name(r.state)
            << " (" << r.done_points << "/" << r.points << " points, "
            << r.executed << " engine runs)";
  if (!r.error.empty()) std::cout << " — " << r.error;
  std::cout << "\n";
}

/// Exit code for a reply: retry-later beats error beats success, and
/// `wait` additionally fails on terminal-but-not-done states.
int reply_exit(const am::measure::DaemonReply& r, bool require_done) {
  if (r.retry) {
    std::cout << "retry later: "
              << (r.error.empty() ? "daemon is draining" : r.error) << "\n";
    return 3;
  }
  if (!r.ok) {
    std::fprintf(stderr, "amsweep: daemon error: %s\n", r.error.c_str());
    return 1;
  }
  if (require_done && r.state != am::measure::JobState::kDone) return 1;
  return 0;
}

std::uint64_t job_flag(const am::Cli& cli) {
  if (!cli.has("job")) throw std::invalid_argument("--job ID is required");
  return get_u64(cli, "job", 0);
}

std::string read_plan_text(const am::Cli& cli) {
  const auto path = cli.get("plan", "");
  std::ostringstream text;
  if (path.empty()) {
    text << std::cin.rdbuf();  // `amsweep mkplan | amsweep submit`
  } else {
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("cannot read plan file '" + path + "'");
    text << in.rdbuf();
  }
  return text.str();
}

int cmd_submit(const am::Cli& cli) {
  const auto ns = cli.get("ns", "");
  if (ns.empty()) throw std::invalid_argument("--ns NAME is required");
  const bool wait = cli.get_bool("wait", false);
  const double timeout = cli.get_seconds("timeout", 0.0);
  const auto plan = read_plan_text(cli);
  auto client = connect(cli);
  auto reply = client.submit(ns, plan);
  const int rc = reply_exit(reply, false);
  if (rc != 0) return rc;
  std::cout << "submitted as job " << reply.job << " (" << reply.points
            << " points, namespace " << ns << ")\n";
  if (!wait) return 0;
  reply = client.wait(reply.job, timeout);
  print_reply(reply);
  return reply_exit(reply, true);
}

int cmd_status(const am::Cli& cli) {
  const auto job = job_flag(cli);
  auto client = connect(cli);
  const auto reply = client.status(job);
  if (reply.ok) print_reply(reply);
  return reply_exit(reply, false);
}

int cmd_cancel(const am::Cli& cli) {
  const auto job = job_flag(cli);
  auto client = connect(cli);
  const auto reply = client.cancel(job);
  if (reply.ok) print_reply(reply);
  return reply_exit(reply, false);
}

int cmd_wait(const am::Cli& cli) {
  const auto job = job_flag(cli);
  const double timeout = cli.get_seconds("timeout", 0.0);
  auto client = connect(cli);
  const auto reply = client.wait(job, timeout);
  if (reply.ok) print_reply(reply);
  return reply_exit(reply, true);
}

/// Builds a synthetic-workload grid spec. The cs/bw configs follow the
/// bench drivers' geometry-preserving scaling (4 MiB and 520 KiB at
/// scale 1, floored at a page), so daemon results line up with what the
/// figure pipeline would measure at the same --scale.
int cmd_mkplan(const am::Cli& cli) {
  am::measure::PlanSpec spec;
  spec.machine_scale =
      static_cast<std::uint32_t>(get_u64(cli, "scale", 256, 1, UINT32_MAX));
  spec.machine_nodes =
      static_cast<std::uint32_t>(get_u64(cli, "nodes", 1, 1, UINT32_MAX));
  spec.mem_backend = cli.get("backend", "channel");
  am::measure::make_machine(spec);  // an unknown backend is a usage error
  spec.seed = get_u64(cli, "seed", 1);
  spec.cs.buffer_bytes =
      std::max<std::uint64_t>(4096, 4ull * 1024 * 1024 / spec.machine_scale);
  spec.bw.buffer_bytes =
      std::max<std::uint64_t>(4096, 520ull * 1024 / spec.machine_scale);

  const auto accesses = get_u64(cli, "accesses", 20000, 1);
  const auto compute_ops =
      static_cast<std::uint32_t>(get_u64(cli, "compute-ops", 1, 1, UINT32_MAX));
  const auto max_cs = get_u64(cli, "max-cs", 2, 0, UINT32_MAX);
  const auto max_bw = get_u64(cli, "max-bw", 2, 0, UINT32_MAX);
  const auto out = cli.get("out", "");

  // uni:2048,norm:4096,... — distribution kind and buffer element count.
  // Distribution parameters derive from n, and the derivation is baked
  // into the workload name so stores can never alias two shapes.
  const auto list = cli.get("workloads", "uni:2048,norm:2048");
  reject_unused(cli);
  std::istringstream items(list);
  std::string item;
  while (std::getline(items, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string::npos || colon + 1 >= item.size())
      throw std::invalid_argument("--workloads entries are kind:elements, got '" +
                                  item + "'");
    const std::string kind = item.substr(0, colon);
    std::uint64_t n = 0;
    if (!am::parse_u64(item.substr(colon + 1), n) || n < 16)
      throw std::invalid_argument(
          "--workloads element count must be an integer >= 16, got '" +
          item + "'");
    am::measure::WorkloadWire w;
    w.kind = am::measure::WorkloadWire::Kind::kSynthetic;
    w.n = n;
    w.measured_accesses = accesses;
    w.compute_ops = compute_ops;
    if (kind == "uni") {
      w.dist = am::model::DistKind::kUniform;
    } else if (kind == "norm") {
      w.dist = am::model::DistKind::kNormal;
      w.dist_a = static_cast<double>(n) / 2.0;  // mu
      w.dist_b = static_cast<double>(n) / 8.0;  // sigma
    } else if (kind == "exp") {
      w.dist = am::model::DistKind::kExponential;
      w.dist_a = 8.0 / static_cast<double>(n);  // lambda
    } else if (kind == "tri") {
      w.dist = am::model::DistKind::kTriangular;
      w.dist_a = static_cast<double>(n) / 3.0;  // mode
    } else {
      throw std::invalid_argument(
          "--workloads kind must be uni|norm|exp|tri, got '" + kind + "'");
    }
    w.name = kind + "-n" + std::to_string(n);
    w.dist_name = w.name;
    spec.workloads.push_back(std::move(w));
  }
  if (spec.workloads.empty())
    throw std::invalid_argument("--workloads named no workloads");

  for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
    spec.points.push_back({wi, am::measure::Resource::kCacheStorage, 0});
    for (std::uint64_t t = 1; t <= max_cs; ++t)
      spec.points.push_back({wi, am::measure::Resource::kCacheStorage,
                             static_cast<std::uint32_t>(t)});
    for (std::uint64_t t = 1; t <= max_bw; ++t)
      spec.points.push_back({wi, am::measure::Resource::kBandwidth,
                             static_cast<std::uint32_t>(t)});
  }

  const auto text = am::measure::serialize_plan_spec(spec);
  if (out.empty()) {
    std::cout << text;
  } else {
    std::ofstream file(out);
    file << text;
    if (!file.flush())
      throw std::runtime_error("cannot write plan to '" + out + "'");
    std::cout << "wrote " << spec.points.size() << "-point plan to " << out
              << "\n";
  }
  return 0;
}

/// Serial in-process execution of a plan spec — the reference a daemon
/// namespace store is byte-compared against.
int cmd_run_local(const am::Cli& cli) {
  const auto out = cli.get("out", "");
  if (out.empty()) throw std::invalid_argument("--out STORE.tsv is required");
  const auto text = read_plan_text(cli);
  reject_unused(cli);
  const auto spec = am::measure::parse_plan_spec(text);
  const auto plan = am::measure::build_plan(spec);
  const auto runner = am::measure::make_runner(spec);
  auto store = am::measure::ResultStore::load_or_empty(out);
  std::vector<std::size_t> owned(plan.size());
  for (std::size_t i = 0; i < owned.size(); ++i) owned[i] = i;
  std::size_t executed = 0;
  runner.run_points(plan, nullptr, &store, owned, &executed);
  store.save(out);
  std::cout << "ran " << plan.size() << " points (" << executed
            << " executed, " << (plan.size() - executed)
            << " cached) into " << out << "\n";
  return 0;
}

/// Hidden fault injector for the protocol test suite: opens a real
/// connection and sends deliberately malformed bytes, then reports what
/// the daemon did. Exit 0 = the daemon failed exactly this connection
/// (error reply and/or close), nonzero = unexpected behaviour.
int cmd_inject(const am::Cli& cli) {
  const auto mode = cli.get("mode", "");
  const double timeout = cli.get_seconds("timeout", 10.0);
  auto client = connect(cli);

  const auto put16 = [](std::string& s, std::uint16_t v) {
    s.push_back(static_cast<char>(v & 0xff));
    s.push_back(static_cast<char>((v >> 8) & 0xff));
  };
  const auto put32 = [&](std::string& s, std::uint32_t v) {
    put16(s, static_cast<std::uint16_t>(v & 0xffff));
    put16(s, static_cast<std::uint16_t>(v >> 16));
  };
  const auto put64 = [&](std::string& s, std::uint64_t v) {
    put32(s, static_cast<std::uint32_t>(v & 0xffffffffu));
    put32(s, static_cast<std::uint32_t>(v >> 32));
  };
  const auto header = [&](std::uint16_t version, std::uint16_t type,
                          std::uint64_t payload_len) {
    std::string h;
    put32(h, am::kFrameMagic);
    put16(h, version);
    put16(h, type);
    put64(h, payload_len);
    return h;
  };

  bool expect_reply = true;
  std::string bytes;
  if (mode == "garbage") {
    bytes = "this is not a frame header at all................";
  } else if (mode == "badversion") {
    bytes = header(99, am::measure::kFrameStatus, 0);
  } else if (mode == "oversize") {
    bytes = header(am::kProtocolVersion, am::measure::kFrameSubmit,
                   1ull << 40);
  } else if (mode == "truncate") {
    // A valid submit frame cut mid-payload, then an abrupt close: the
    // daemon must treat EOF-with-pending-bytes as a protocol error.
    const auto whole =
        am::encode_frame({am::measure::kFrameSubmit, "ns\talice\n#am-plan"});
    bytes = whole.substr(0, whole.size() / 2);
    expect_reply = false;
  } else {
    throw std::invalid_argument(
        "--mode must be garbage|badversion|oversize|truncate");
  }

  client.send_raw(bytes);
  if (!expect_reply) {
    client.socket().close();
    std::cout << "inject " << mode << ": sent and closed mid-frame\n";
    return 0;
  }
  try {
    am::set_io_timeout(client.socket(), timeout);
    const auto frame = am::read_frame(client.socket());
    const auto reply = am::measure::parse_reply(frame.payload);
    if (!reply || reply->ok) {
      std::fprintf(stderr, "inject %s: daemon accepted malformed input\n",
                   mode.c_str());
      return 1;
    }
    std::cout << "inject " << mode << ": rejected — " << reply->error << "\n";
  } catch (const am::SocketError&) {
    // Connection dropped without a reply: also a clean containment.
    std::cout << "inject " << mode << ": connection failed by daemon\n";
  }
  return 0;
}

/// The manual multi-host recipe: cuts the driver's plan into one static
/// lease file per host (SweepOrchestrator::slice) and prints the
/// commands that run and merge the slices.
int cmd_slice(const am::Cli& cli, const std::vector<std::string>& driver) {
  if (!cli.has("hosts")) throw std::invalid_argument("--hosts N is required");
  const auto hosts = get_u64(cli, "hosts", 1, 1, 65536);
  am::measure::OrchestratorOptions opts;
  opts.worker_command = driver;
  opts.results_dir = cli.get("out", "");
  if (opts.results_dir.empty())
    throw std::invalid_argument("--out DIR is required");
  opts.driver = std::filesystem::path(driver[0]).stem().string();
  reject_unused(cli);
  const am::measure::SweepOrchestrator orchestrator(opts);
  std::string error;
  const auto slices = orchestrator.slice(hosts, error);
  if (!slices) {
    std::fprintf(stderr, "amsweep slice: %s\n", error.c_str());
    return 1;
  }
  std::string command;
  for (const auto& a : driver) command += a + " ";
  std::cout << "amsweep slice: " << opts.driver << " cut into "
            << slices->size() << " slice(s) in " << opts.results_dir
            << "\nrun slice i on host i, each with the same --results-dir R:"
               "\n";
  for (const auto& path : *slices)
    std::cout << "  " << command << "--results-dir R --lease " << path
              << "\n";
  // A slice store holds only its slice's points (R's store is a lookup
  // seed, never copied), so R's own store leads the merge to keep its
  // older records.
  const std::string canonical = am::measure::store_path("R", opts.driver);
  std::cout << "then gather the slice stores and merge them into R's:\n"
               "  amresult merge --out "
            << canonical << " " << canonical;
  for (const auto& path : *slices)
    std::cout << " " << am::lease_store_path(path);
  std::cout << "\n";
  return 0;
}

/// argv split at the first bare "--": the flags before it and the
/// command after it, untouched by flag parsing (driver flags must reach
/// the driver verbatim).
struct SplitArgs {
  std::vector<std::string> own;  // argv[0], then the flags
  std::vector<std::string> command;
  bool split = false;

  SplitArgs(int argc, char** argv, int first) : own{argv[0]} {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!split && arg == "--") {
        split = true;
        continue;
      }
      (split ? command : own).push_back(std::move(arg));
    }
  }

  am::Cli cli() {
    std::vector<char*> argv;
    for (auto& a : own) argv.push_back(a.data());
    return am::Cli(static_cast<int>(argv.size()), argv.data());
  }
};

int run_client(int argc, char** argv) {
  const std::string cmd = argv[1];
  // Re-parse without the subcommand word so Cli sees only flags.
  SplitArgs args(argc, argv, 2);
  try {
    if (cmd == "slice") {
      if (!args.split || args.command.empty()) return usage();
      return cmd_slice(args.cli(), args.command);
    }
    if (args.split)
      throw std::invalid_argument("'--' belongs to amsweep slice only");
    const am::Cli cli = args.cli();
    if (cmd == "submit") return cmd_submit(cli);
    if (cmd == "status") return cmd_status(cli);
    if (cmd == "cancel") return cmd_cancel(cli);
    if (cmd == "wait") return cmd_wait(cli);
    if (cmd == "mkplan") return cmd_mkplan(cli);
    if (cmd == "run-local") return cmd_run_local(cli);
    if (cmd == "_inject") return cmd_inject(cli);
    std::fprintf(stderr, "amsweep: unknown subcommand '%s'\n", cmd.c_str());
    return usage();
  } catch (const am::SocketError& e) {
    // No daemon answered (or it went away mid-request): retryable.
    std::fprintf(stderr, "amsweep %s: %s\n", cmd.c_str(), e.what());
    return 3;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "amsweep %s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amsweep %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A bare word first is a subcommand; flags (or nothing) mean the
  // original orchestrator interface.
  if (argc >= 2 && argv[1][0] != '\0' && argv[1][0] != '-')
    return run_client(argc, argv);

  SplitArgs args(argc, argv, 1);
  if (!args.split || args.command.empty()) return usage();
  const auto& worker = args.command;

  try {
    const am::Cli cli = args.cli();
    am::measure::OrchestratorOptions opts;
    opts.worker_command = worker;
    opts.results_dir = cli.get("results-dir", "");
    if (opts.results_dir.empty()) {
      std::fprintf(stderr, "amsweep: --results-dir is required\n");
      return usage();
    }
    const auto cost_model = cli.get("cost-model", "measured");
    if (cost_model == "uniform")
      opts.use_measured_costs = false;
    else if (cost_model != "measured")
      throw std::invalid_argument(
          "--cost-model must be 'measured' or 'uniform', got '" +
          cost_model + "'");
    // Validate signs before the size_t casts: a negative typo must be a
    // usage error, not SIZE_MAX workers or an effectively infinite retry
    // budget.
    const auto workers = cli.get_int("workers", 2);
    if (workers <= 0) throw std::invalid_argument("--workers must be positive");
    opts.workers = static_cast<std::size_t>(workers);
    // 0 = auto (a few batches per worker slot); explicit counts must be
    // positive.
    const auto batches = cli.get_int("batches", 0);
    if (batches < 0)
      throw std::invalid_argument("--batches must be >= 0 (0 = auto)");
    opts.lease_batches = static_cast<std::size_t>(batches);
    const auto retries = cli.get_int("retries", 1);
    if (retries < 0)
      throw std::invalid_argument("--retries must be >= 0");
    opts.retries = static_cast<std::size_t>(retries);
    opts.poll_seconds = cli.get_seconds("poll-seconds", opts.poll_seconds);
    opts.stall_timeout_seconds = cli.get_seconds("stall-timeout", 0.0);
    opts.driver = cli.get(
        "driver-name", std::filesystem::path(worker[0]).stem().string());
    // A typo'd or retired flag (--schedule, --shards) must fail loudly,
    // not run a sweep its script did not ask for.
    for (const auto& flag : cli.unused())
      throw std::invalid_argument("unknown flag --" + flag);

    am::measure::SweepOrchestrator orchestrator(std::move(opts));
    const auto report = orchestrator.run(std::cout);
    if (!report.success) return 1;
    std::cout << "print the figure from cache with:\n  ";
    for (const auto& a : worker) std::cout << a << " ";
    std::cout << "--results-dir " << cli.get("results-dir", "") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amsweep: %s\n", e.what());
    return 2;
  }
}
