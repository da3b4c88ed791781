// Fig. 12 of the paper: Lulesh per-process resource consumption vs mapping,
// for 22^3 and 36^3 per-rank cubes, via the §IV bounds recipe.
//
// Paper reference shape: 22^3 processes need ~3.5-7 MB of L3, 36^3
// processes ~7-20 MB (overflowing); per-process bandwidth use rises as
// processes spread out, and (for 22^3) storage use rises too because MPI
// buffers linger in cache during cross-socket transfers.
#include "bench_util.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"

namespace {

int fig12(const am::Cli& cli, am::bench::BenchContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks", 64));
  const auto steps = static_cast<std::uint32_t>(cli.get_int("steps", 2));
  const double tolerance = cli.get_double("tolerance", 0.05);
  // --quick trims calibration and the cube/mapping sweeps for smoke runs.
  const bool quick = cli.get_bool("quick", false);
  const std::vector<std::uint32_t> edges =
      quick ? std::vector<std::uint32_t>{22}
            : std::vector<std::uint32_t>{22, 36};
  const std::vector<std::uint32_t> mappings =
      quick ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4};
  const std::uint32_t sweep_cs = quick ? 2 : 5;
  const std::uint32_t sweep_bw = quick ? 1 : 2;

  auto store = am::bench::make_store(ctx);
  am::measure::SimBackend backend(ctx.machine, ctx.seed);

  // Every (edge × mapping) cell goes into one grid: both resources of a
  // cell share one baseline run and the whole plan runs over the pool.
  // Names embed every run-shaping parameter — they key the ResultStore.
  std::vector<am::measure::GridRequest> requests;
  for (const std::uint32_t edge : edges) {
    auto cfg = am::apps::LuleshConfig::paper(edge, ctx.scale);
    cfg.steps = steps;
    for (const std::uint32_t p : mappings)
      requests.push_back(
          {am::measure::make_lulesh_workload(ranks, p, cfg),
           "lulesh r" + std::to_string(ranks) + " s" + std::to_string(steps) +
               " cube " + std::to_string(edge) + "^3 p=" + std::to_string(p),
           std::min(sweep_cs, ctx.machine.cores_per_socket - p),
           std::min(sweep_bw, ctx.machine.cores_per_socket - p),
           am::measure::mpi_interference_groups(ctx.machine, ranks, p)});
  }
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
  std::size_t cell = 0;
  for (const std::uint32_t edge : edges) {
    am::Table t({"p/processor", "capacity lo (MB)", "capacity hi (MB)",
                 "bandwidth lo (GB/s)", "bandwidth hi (GB/s)"});
    for (const std::uint32_t p : mappings) {
      const auto& cell_sweeps = sweeps[cell++];
      const auto cs_bounds = am::measure::ActiveMeasurer::bounds(
          cell_sweeps.storage, p, tolerance);
      const auto bw_bounds = am::measure::ActiveMeasurer::bounds(
          cell_sweeps.bandwidth, p, tolerance);
      auto cap_str = [&](double v) {
        return am::Table::num(v / mb * ctx.scale, 2);
      };
      t.add_row({std::to_string(p), cap_str(cs_bounds.lower),
                 cap_str(cs_bounds.upper),
                 am::Table::num(bw_bounds.lower / 1e9, 2),
                 am::Table::num(bw_bounds.upper / 1e9, 2)});
    }
    am::bench::emit(t, ctx,
                    "Fig. 12: Lulesh " + std::to_string(edge) +
                        "^3 per-process resource use vs mapping "
                        "(capacities rescaled to the 20 MB machine)");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig12_lulesh_resources",
                               /*default_scale=*/16, /*nodes=*/32, fig12);
}
