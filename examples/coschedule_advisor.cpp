// Domain scenario 4: co-scheduling two applications on one socket. Each
// application is profiled *in isolation* with Active Measurement; the
// advisor then predicts the cost of co-location — and we validate the
// prediction by actually co-running the pair on the simulator.
//
// Build & run:  ./build/examples/coschedule_advisor [--scale N] [--accesses N]
//               [--results-dir DIR] [--lease FILE | --emit-plan FILE]
//               [--worker] [--test-crash-marker FILE]
//
// The scheduling flags make the advisor orchestratable by amsweep (see
// mcb_mapping_study); the contract — flags, heartbeat, crash marker and
// exit codes (2 = usage, 3 = run failure) — is the shared worker entry,
// measure::run_worker_entry. Workers and probes only build and run the
// profiling grid; the calibrations are computed for the advice alone,
// cached in <results-dir>/calibration.tsv when a results dir is given.
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/coschedule.hpp"
#include "measure/lease.hpp"
#include "model/distributions.hpp"

namespace {

am::apps::SyntheticConfig make_app(const am::sim::MachineConfig& m,
                                   double l3_fraction,
                                   std::uint64_t accesses) {
  const auto elements = static_cast<std::uint64_t>(
      l3_fraction * static_cast<double>(m.l3.size_bytes) / 4.0);
  return am::apps::SyntheticConfig{
      am::model::AccessDistribution::uniform(elements, "Uni"), 4, 1,
      elements * 2, accesses};
}

int advise(const am::Cli& cli, const am::measure::SchedulingFlags& flags) {
  const auto kScale = static_cast<std::uint32_t>(cli.get_int("scale", 16));
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 150'000));
  // The store is disabled when no results dir and no lease is given.
  auto store = am::measure::open_store(cli.get("results-dir", ""),
                                       "coschedule_advisor", flags);
  auto machine = am::sim::MachineConfig::xeon20mb_scaled(kScale);
  am::sim::apply_mem_backend(machine, cli.get("mem-backend", "channel"));
  am::interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  am::interfere::BWThrConfig bw;
  bw.buffer_bytes = 520ull * 1024 / kScale;

  // Profile two applications in isolation: one light (25% of L3), one
  // heavy (60% of L3). Both profiles go into one experiment grid, so each
  // app's storage and bandwidth sweeps share a single baseline run and the
  // whole plan executes over the pool at once. Parameters live in the
  // workload names — they key the ResultStore.
  const auto light_cfg = make_app(machine, 0.25, accesses);
  const auto heavy_cfg = make_app(machine, 0.60, accesses);
  const auto atag = " a=" + std::to_string(accesses);
  const std::vector<am::measure::GridRequest> requests{
      {am::measure::make_synthetic_workload(light_cfg), "light l3=0.25" + atag,
       5, 2},
      {am::measure::make_synthetic_workload(heavy_cfg), "heavy l3=0.60" + atag,
       5, 2}};
  am::measure::SimBackend backend(machine);
  const auto grid = am::measure::plan_grid(backend, requests, cs, bw,
                                           store.checkpointer());
  am::ThreadPool pool;
  const auto table = am::measure::execute_plan(flags, grid.plan, grid.runner,
                                               store, &pool, std::cout);
  if (!table) return 0;  // worker/probe: output is store or plan files

  // Only the assembled profiles read the calibrations: they turn thread
  // counts into resource availability.
  am::measure::CalibrationOptions copts;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe = accesses * 2 / 3;  // 100k at the 150k default
  // --results-dir serves and records the probes in the calibration store
  // the drivers share.
  am::measure::ResultStoreFile calib_store(cli.get("results-dir", ""),
                                           "calibration");
  const std::size_t held =
      calib_store.store() ? calib_store.store()->size() : 0;
  const auto cap_calib =
      am::measure::calibrate_capacity(machine, cs, copts, calib_store.store());
  const auto bw_calib = am::measure::calibrate_bandwidth(
      machine, bw, 2, copts.seed, calib_store.store());
  if (calib_store.store() != nullptr) {
    // Each probe that ran added one record: one per capacity level, and
    // the bandwidth peak plus one window per level.
    const std::size_t probes = cap_calib.available_bytes.size() + 1 +
                               bw_calib.used_bytes_per_sec.size();
    calib_store.finish(calib_store.store()->size() - held, probes, std::cout);
  }
  const am::measure::ActiveMeasurer measurer(backend, cap_calib, bw_calib);
  const auto sweeps = measurer.assemble_grid(grid, requests, *table);

  auto profile = [](const char* name, const am::measure::GridSweeps& s) {
    auto p = am::measure::AppProfile::from_sweeps(name, s.storage,
                                                  s.bandwidth, 1);
    std::printf("  %-6s uses %.2f-%.2f MB of L3 (baseline %.2f ms)\n", name,
                p.capacity.lower / 1e6, p.capacity.upper / 1e6,
                s.storage.points.front().seconds * 1e3);
    return std::pair{p, s.storage.points.front().seconds};
  };
  std::printf("Profiling in isolation on %s:\n", machine.name.c_str());
  const auto [light, light_base] = profile("light", sweeps[0]);
  const auto [heavy, heavy_base] = profile("heavy", sweeps[1]);

  const am::measure::CoScheduleAdvisor advisor(
      static_cast<double>(machine.l3.size_bytes),
      machine.mem_bandwidth_bytes_per_sec);
  const auto verdict = advisor.advise(light, heavy);
  std::printf("\nAdvisor prediction for co-location on one socket:\n");
  std::printf("  light: %.2fx   heavy: %.2fx   (capacity %s)\n",
              verdict.slowdown_a, verdict.slowdown_b,
              verdict.capacity_oversubscribed ? "OVERSUBSCRIBED" : "fits");

  // Validate: actually co-run the two applications on one socket.
  am::sim::Engine engine(machine);
  auto a1 = std::make_unique<am::apps::SyntheticBenchmarkAgent>(
      engine.memory(), light_cfg, "light");
  auto a2 = std::make_unique<am::apps::SyntheticBenchmarkAgent>(
      engine.memory(), heavy_cfg, "heavy");
  auto* light_raw = a1.get();
  auto* heavy_raw = a2.get();
  const auto i1 = engine.add_agent(std::move(a1), 0);
  const auto i2 = engine.add_agent(std::move(a2), 1);
  engine.run();
  const double light_colo =
      machine.cycles_to_seconds(engine.agent_clock(i1) -
                                light_raw->measure_start_cycle());
  const double heavy_colo =
      machine.cycles_to_seconds(engine.agent_clock(i2) -
                                heavy_raw->measure_start_cycle());
  std::printf("\nActual co-run:\n  light: %.2fx   heavy: %.2fx\n",
              light_colo / light_base, heavy_colo / heavy_base);
  std::printf(
      "\n(Predictions come from isolated profiles only — the two apps never\n"
      "ran together during profiling. They are conservative by construction:\n"
      "the sensitivity curves were measured against CSThr interference, and a\n"
      "CSThr denies cache far more aggressively than a co-running application\n"
      "with its own locality. A 'safe' verdict is therefore trustworthy, an\n"
      "'unsafe' one errs toward caution.)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::measure::run_worker_entry(argc, argv, "coschedule_advisor",
                                       advise);
}
