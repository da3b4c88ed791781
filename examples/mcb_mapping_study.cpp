// Domain scenario 1: the paper's §IV study — where should MCB's 24 MPI
// processes be placed? Packing more processes per processor shares the L3
// between them but keeps communication on-chip; spreading them out gives
// each process a whole L3 but routes all messages over the memory bus.
// Active Measurement quantifies both effects.
//
// Build & run:  ./build/examples/mcb_mapping_study [--scale N]
//               [--particles N] [--steps N]
//               [--results-dir DIR] [--shard i/n | --lease FILE |
//               --emit-plan FILE] [--worker]
//
// The scheduling flags make the study orchestratable by amsweep: --lease
// (with --worker) joins its work queue, --emit-plan answers its plan
// probe, and --shard runs a slice for the manual multi-host recipe
// (merge the slices with amresult). Worker exit codes follow the
// measure::SweepOrchestrator contract (2 = usage, 3 = run failure).
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/cli.hpp"
#include "common/heartbeat.hpp"
#include "common/thread_pool.hpp"
#include "common/work_lease.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/lease.hpp"
#include "measure/orchestrator.hpp"

namespace {

int study(const am::Cli& cli) {
  const auto kScale = static_cast<std::uint32_t>(cli.get_int("scale", 16));
  // One scheduling mode at most (shared contract with the bench
  // drivers); the --shard/--results-dir pairing is validated by
  // ResultStoreFile, which is disabled when no results dir is given.
  const auto [shard, lease, emit_plan] =
      am::measure::parse_scheduling_flags(cli);
  auto store =
      lease.empty()
          ? am::measure::ResultStoreFile(cli.get("results-dir", ""),
                                         "mcb_mapping_study", shard)
          : am::measure::ResultStoreFile::for_lease(
                cli.get("results-dir", ""), "mcb_mapping_study", lease);
  std::optional<am::HeartbeatWriter> heartbeat;
  if (cli.get_bool("worker", false)) {
    if (lease.empty())
      throw std::invalid_argument("--worker requires --lease");
    heartbeat.emplace(am::lease_heartbeat_path(lease));
  }
  auto machine =
      am::sim::MachineConfig::xeon20mb_scaled(kScale, /*nodes=*/12);
  // The backend is part of the machine fingerprint (when not the default
  // channel), so banked runs cache under their own store keys.
  am::sim::apply_mem_backend(machine, cli.get("mem-backend", "channel"));
  am::interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / kScale;

  const auto particles =
      static_cast<std::uint32_t>(cli.get_int("particles", 20'000));
  auto cfg = am::apps::McbConfig::paper(particles, kScale);
  cfg.steps = static_cast<std::uint32_t>(cli.get_int("steps", 3));

  // Declare the whole mapping study as one plan: the runner owns the
  // thread pool, per-experiment seeds and the baseline table.
  const std::vector<std::uint32_t> mappings{1, 2, 4};
  am::measure::ExperimentPlan plan;
  std::vector<std::pair<am::measure::WorkloadId, std::uint32_t>> cells;
  for (const std::uint32_t p : mappings) {
    // Parameters live in the name: it keys the ResultStore.
    const auto id = plan.add_workload(
        {"mcb r24 s" + std::to_string(cfg.steps) + " particles=" +
             std::to_string(particles) + " p=" + std::to_string(p),
         am::measure::make_mcb_workload(24, p, cfg),
         am::measure::mpi_interference_groups(machine, 24, p)});
    const std::uint32_t k = std::min(4u, machine.cores_per_socket - p);
    plan.add_point(id, am::measure::Resource::kCacheStorage, 0);
    plan.add_point(id, am::measure::Resource::kCacheStorage, k);
    cells.emplace_back(id, k);
  }

  am::measure::SweepRunnerOptions opts;
  opts.mix_seed_per_point = false;  // baseline and interfered share a seed
  opts.cs = cs;
  opts.checkpoint = store.checkpointer();  // keep finished runs on a crash
  const am::measure::SweepRunner runner(machine, opts);
  am::ThreadPool pool;

  if (!emit_plan.empty()) {
    am::measure::emit_plan_info(plan, runner, store.store(), emit_plan);
    std::cout << "plan info: " << plan.size() << " point(s) -> " << emit_plan
              << "\n";
    return 0;
  }
  if (!lease.empty()) {
    const auto report = am::measure::run_lease_worker(plan, runner, &pool,
                                                      store, lease,
                                                      std::cout);
    store.finish(report.executed, report.points, std::cout);
    return 0;
  }
  std::size_t executed = 0;
  const auto table = runner.run(plan, &pool, store.store(), shard, &executed);
  if (store.finish(executed, table.size(), std::cout))
    return 0;  // shard: merge with amresult, then re-run to print

  std::printf("MCB, 24 ranks, %u particles on %s\n\n", particles,
              machine.name.c_str());
  std::printf("%-14s %-12s %-16s %-18s\n", "p/processor", "nodes",
              "baseline (ms)", "+4 CSThr (ms)");
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const std::uint32_t p = mappings[i];
    const auto& [id, k] = cells[i];
    const auto& base = table.baseline(id);
    const auto& interfered =
        table.at(id, am::measure::Resource::kCacheStorage, k);
    std::printf("%-14u %-12u %-16.3f %-10.3f (+%.1f%%)\n", p, 24 / (2 * p),
                base.seconds * 1e3, interfered.seconds * 1e3,
                (table.slowdown(id, am::measure::Resource::kCacheStorage, k) -
                 1.0) *
                    100.0);
  }
  std::printf(
      "\nReading the table: if packed mappings degrade at fewer CSThrs,\n"
      "each process needs a bigger share of the L3 than packing leaves it;\n"
      "if the spread-out mapping uses more bandwidth, co-scheduling other\n"
      "jobs on the free cores will hurt (see bench/fig9, fig10 for the\n"
      "full sweeps).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Machine-readable exits for supervisors (measure::SweepOrchestrator):
  // flag rejections are usage errors no retry can fix; anything else out
  // of the sweep is a retryable run failure.
  try {
    const am::Cli cli(argc, argv);
    return study(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "mcb_mapping_study: %s\n", e.what());
    return am::measure::kWorkerExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcb_mapping_study: %s\n", e.what());
    return am::measure::kWorkerExitRunFailed;
  }
}
