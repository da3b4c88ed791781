// Fig. 10 of the paper: MCB's per-process resource consumption (L3 storage
// and memory bandwidth) as a function of the MPI mapping, derived from the
// degradation sweeps via the §IV bounds recipe.
//
// Paper reference shape (20k particles): storage use is roughly constant
// (~3.5-7 MB/process) across mappings, while per-process bandwidth use
// grows as processes spread out (~3.5-4.25 GB/s at 4/processor up to
// ~11.4-14.2 GB/s at 1/processor) because all communication then crosses
// the memory bus.
#include "bench_util.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"

namespace {

int fig10(const am::Cli& cli, am::bench::BenchContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks", 24));
  const auto steps = static_cast<std::uint32_t>(cli.get_int("steps", 3));
  const auto particles =
      static_cast<std::uint32_t>(cli.get_int("particles", 20'000));
  const double tolerance = cli.get_double("tolerance", 0.05);
  // --quick trims calibration and the mapping sweep for smoke runs.
  const bool quick = cli.get_bool("quick", false);
  const std::vector<std::uint32_t> mappings =
      quick ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 3, 4};
  const std::uint32_t sweep_cs = quick ? 2 : 5;
  const std::uint32_t sweep_bw = quick ? 1 : 2;

  auto store = am::bench::make_store(ctx);
  am::measure::SimBackend backend(ctx.machine, ctx.seed);
  auto cfg = am::apps::McbConfig::paper(particles, ctx.scale);
  cfg.steps = steps;

  // One grid for every mapping: both resources of one mapping share a
  // single baseline run, and the whole plan runs over the pool at once.
  // Names embed every run-shaping parameter — they key the ResultStore.
  std::vector<am::measure::GridRequest> requests;
  for (const std::uint32_t p : mappings)
    requests.push_back({am::measure::make_mcb_workload(ranks, p, cfg),
                        "mcb r" + std::to_string(ranks) + " s" +
                            std::to_string(steps) + " particles=" +
                            std::to_string(particles) + " p=" +
                            std::to_string(p),
                        std::min(sweep_cs, ctx.machine.cores_per_socket - p),
                        std::min(sweep_bw, ctx.machine.cores_per_socket - p),
                        am::measure::mpi_interference_groups(ctx.machine,
                                                             ranks, p)});
  const auto grid =
      am::measure::plan_grid(backend, requests, ctx.cs_config(),
                             ctx.bw_config(), store.checkpointer());
  am::ThreadPool pool;
  const auto table = am::measure::execute_plan(ctx.sched, grid.plan,
                                               grid.runner, store, &pool,
                                               std::cout);
  if (!table) return 0;  // worker/probe: output is store or plan files

  // Only the assembled figure reads the calibrations: they turn thread
  // counts into resource availability.
  const auto calib = am::bench::figure_calibrations(ctx, quick);
  const am::measure::ActiveMeasurer measurer(backend, calib.capacity,
                                             calib.bandwidth);
  const auto sweeps = measurer.assemble_grid(grid, requests, *table);

  const double mb = 1024.0 * 1024.0;
  am::Table t({"p/processor", "capacity lo (MB)", "capacity hi (MB)",
               "bandwidth lo (GB/s)", "bandwidth hi (GB/s)"});
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    const std::uint32_t p = mappings[i];
    const auto cs_bounds =
        am::measure::ActiveMeasurer::bounds(sweeps[i].storage, p, tolerance);
    const auto bw_bounds =
        am::measure::ActiveMeasurer::bounds(sweeps[i].bandwidth, p, tolerance);
    auto cap_str = [&](double v) {
      return am::Table::num(v / mb * ctx.scale, 2);  // rescaled to 20MB L3
    };
    t.add_row({std::to_string(p), cap_str(cs_bounds.lower),
               cap_str(cs_bounds.upper),
               am::Table::num(bw_bounds.lower / 1e9, 2),
               am::Table::num(bw_bounds.upper / 1e9, 2)});
  }
  am::bench::emit(t, ctx,
                  "Fig. 10: MCB per-process resource use vs mapping "
                  "(capacities rescaled to the 20 MB machine; paper: "
                  "storage ~3.5-7 MB flat, bandwidth rising as spread out)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig10_mcb_resources",
                               /*default_scale=*/16, /*nodes=*/12, fig10);
}
