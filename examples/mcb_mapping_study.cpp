// Domain scenario 1: the paper's §IV study — where should MCB's 24 MPI
// processes be placed? Packing more processes per processor shares the L3
// between them but keeps communication on-chip; spreading them out gives
// each process a whole L3 but routes all messages over the memory bus.
// Active Measurement quantifies both effects.
//
// Build & run:  ./build/examples/mcb_mapping_study [--scale N]
//               [--particles N] [--steps N]
//               [--results-dir DIR] [--lease FILE | --emit-plan FILE]
//               [--worker] [--test-crash-marker FILE]
//
// The scheduling flags make the study orchestratable by amsweep: --lease
// (with --worker) joins its work queue or, given a slice file cut by
// `amsweep slice`, runs that slice for the manual multi-host recipe
// (merge the slice stores with amresult); --emit-plan answers the plan
// probe, and --test-crash-marker FILE injects one worker kill. The contract — flags, heartbeat, marker and
// exit codes (2 = usage, 3 = run failure) — is the shared worker entry,
// measure::run_worker_entry.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/lease.hpp"

namespace {

int study(const am::Cli& cli, const am::measure::SchedulingFlags& flags) {
  const auto kScale = static_cast<std::uint32_t>(cli.get_int("scale", 16));
  // The store is disabled when no results dir and no lease is given.
  auto store = am::measure::open_store(cli.get("results-dir", ""),
                                       "mcb_mapping_study", flags);
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
  const auto table = am::measure::execute_plan(flags, plan, runner, store,
                                               &pool, std::cout);
  if (!table) return 0;  // worker/probe: output is store or plan files

  std::printf("MCB, 24 ranks, %u particles on %s\n\n", particles,
              machine.name.c_str());
  std::printf("%-14s %-12s %-16s %-18s\n", "p/processor", "nodes",
              "baseline (ms)", "+4 CSThr (ms)");
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const std::uint32_t p = mappings[i];
    const auto& [id, k] = cells[i];
    const auto& base = table->baseline(id);
    const auto& interfered =
        table->at(id, am::measure::Resource::kCacheStorage, k);
    std::printf("%-14u %-12u %-16.3f %-10.3f (+%.1f%%)\n", p, 24 / (2 * p),
                base.seconds * 1e3, interfered.seconds * 1e3,
                (table->slowdown(id, am::measure::Resource::kCacheStorage, k) -
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
  return am::measure::run_worker_entry(argc, argv, "mcb_mapping_study", study);
}
