// amsweepd — the sweep machinery as a long-running, multi-tenant
// daemon (measure::SweepDaemon).
//
// Serves framed protocol requests (submit/status/cancel/wait — see
// `amsweep submit`) on a Unix-domain socket, optionally also on a
// loopback-TCP port, and runs accepted ExperimentPlans across a fleet
// of supervised worker processes. Workers are this same binary in
// `--worker` mode: the daemon re-execs itself, so one installed file
// is the whole service.
//
//   amsweepd --socket PATH --results-dir DIR [--workers N]
//            [--retries K] [--batches K] [--tcp-port P]
//            [--poll-seconds S] [--stall-timeout S]
//            [--client-timeout S] [--idle-timeout S]
//            [--test-crash-marker FILE]
//
//   amsweepd --worker --lease FILE [--poll-seconds S]
//            [--idle-timeout S] [--test-crash-marker FILE]
//
// `--workers 0` is accept-only mode: submissions queue durably but
// nothing dispatches until a restart with workers. `--tcp-port 0`
// asks the kernel for a port (written to <results-dir>/daemon/tcp.port).
// `--test-crash-marker` is forwarded to every worker: the first worker
// to start while FILE exists deletes it and SIGKILLs itself, holding
// the lease the daemon offered before spawning it — the deterministic
// crash the smoke test recovers from. Workers run the shared streaming
// lease-worker loop on the plan file each offer names, under the shared
// worker entry (measure/lease.hpp run_worker_entry).
//
// SIGTERM/SIGINT request a graceful drain: in-flight leases finish,
// every completed point is checkpointed, waiting submitters get
// retry-later replies, and the queue persists for the next start.
//
// Exit status (daemon mode):
//   0  drained cleanly; queue file resumable
//   1  serving failed (bind error, unwritable results dir, ...)
//   2  usage
// Worker mode follows the orchestrator's worker contract:
//   0 done, 2 bad offer/plan (no retry), 3 retryable failure.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "measure/daemon.hpp"
#include "measure/lease.hpp"
#include "measure/worker_fleet.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: amsweepd --socket PATH --results-dir DIR [--workers N]\n"
      "                [--retries K] [--batches K] [--tcp-port P]\n"
      "                [--poll-seconds S] [--stall-timeout S]\n"
      "                [--client-timeout S] [--idle-timeout S]\n"
      "                [--test-crash-marker FILE]\n"
      "       amsweepd --worker --lease FILE [--poll-seconds S]\n"
      "                [--idle-timeout S] [--test-crash-marker FILE]\n"
      "exit: 0 drained, 1 serving failed, 2 usage (worker: 0/2/3)\n");
  return 2;
}

am::measure::SweepDaemon* g_daemon = nullptr;

void on_signal(int) {
  // request_drain is an atomic store — async-signal-safe by design.
  if (g_daemon) g_daemon->request_drain();
}

/// The path this binary re-execs for worker slots. argv[0] survives
/// PATH lookup through posix_spawnp, but an absolute path is immune to
/// a daemon that later chdirs or a caller with a doctored PATH.
std::string self_path(const char* argv0) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return argv0;
}

/// `--worker` mode: the shared streaming lease-worker loop on the plan
/// file each offer names, under the shared worker entry (which also
/// claims the crash marker: the daemon wrote this slot's first offer
/// before spawning it, so a claiming worker dies holding a lease).
int worker(const am::Cli& cli, const am::measure::SchedulingFlags& flags) {
  am::measure::LeaseWorkerOptions opts;
  opts.poll_seconds = cli.get_seconds("poll-seconds", opts.poll_seconds);
  opts.idle_timeout_seconds =
      cli.get_seconds("idle-timeout", opts.idle_timeout_seconds);
  am::measure::run_daemon_worker(flags.lease_path, std::cout, opts);
  return am::measure::kWorkerExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const am::Cli cli(argc, argv);
    if (cli.get_bool("worker", false))
      return am::measure::run_worker_entry(argc, argv, "amsweepd --worker",
                                           worker);

    am::measure::SweepDaemonOptions opts;
    opts.socket_path = cli.get("socket", "");
    opts.results_dir = cli.get("results-dir", "");
    if (opts.socket_path.empty() || opts.results_dir.empty()) {
      std::fprintf(stderr,
                   "amsweepd: --socket and --results-dir are required\n");
      return usage();
    }
    const auto workers = cli.get_int("workers", 2);
    if (workers < 0)
      throw std::invalid_argument("--workers must be >= 0 (0 = accept-only)");
    opts.workers = static_cast<std::size_t>(workers);
    const auto retries = cli.get_int("retries", 1);
    if (retries < 0) throw std::invalid_argument("--retries must be >= 0");
    opts.retries = static_cast<std::size_t>(retries);
    const auto batches = cli.get_int("batches", 0);
    if (batches < 0)
      throw std::invalid_argument("--batches must be >= 0 (0 = auto)");
    opts.batches_per_job = static_cast<std::size_t>(batches);
    opts.poll_seconds = cli.get_seconds("poll-seconds", opts.poll_seconds);
    opts.stall_timeout_seconds =
        cli.get_seconds("stall-timeout", opts.stall_timeout_seconds);
    opts.client_io_timeout_seconds =
        cli.get_seconds("client-timeout", opts.client_io_timeout_seconds);
    const auto tcp = cli.get_int("tcp-port", -1);
    if (tcp < -1 || tcp > 65535)
      throw std::invalid_argument("--tcp-port must be in [-1, 65535]");
    opts.tcp_port = static_cast<int>(tcp);

    // Worker slots re-exec this binary; forward the knobs a worker
    // understands (queried here so they never trip unused-flag checks).
    opts.worker_command = {self_path(argv[0]), "--worker"};
    opts.worker_command.push_back("--poll-seconds");
    opts.worker_command.push_back(std::to_string(opts.poll_seconds));
    const auto idle = cli.get_seconds("idle-timeout", 600.0);
    opts.worker_command.push_back("--idle-timeout");
    opts.worker_command.push_back(std::to_string(idle));
    const auto marker = cli.get("test-crash-marker", "");
    if (!marker.empty()) {
      opts.worker_command.push_back("--test-crash-marker");
      opts.worker_command.push_back(marker);
    }
    // A typo'd flag must fail loudly, not serve with defaults.
    for (const auto& flag : cli.unused())
      throw std::invalid_argument("unknown flag --" + flag);

    am::measure::SweepDaemon daemon(std::move(opts));
    g_daemon = &daemon;
    struct sigaction sa = {};
    sa.sa_handler = on_signal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    const auto report = daemon.run(std::cout);
    g_daemon = nullptr;
    if (!report.clean_exit) {
      std::fprintf(stderr, "amsweepd: %s\n",
                   report.error.empty() ? "serving failed"
                                        : report.error.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amsweepd: %s\n", e.what());
    return 2;
  }
}
