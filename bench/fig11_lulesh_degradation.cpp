// Fig. 11 of the paper: Lulesh (64 MPI ranks) performance degradation.
//   Top:    22^3 per-rank domains across mappings p in {1,2,4}.
//   Bottom: 1 process/processor, cube edges 22..36.
//
// Paper reference shape: with 4 processes/processor any CSThr overflows
// the L3 (every process needs > 3.5 MB); with 1/processor, cubes <= 32
// degrade < 5% for 1-2 CSThrs but > 10% at 5; larger cubes degrade with
// any storage interference; bandwidth interference costs > 10% for cubes
// 32 and 36.
#include "bench_util.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"

namespace {
using am::measure::Resource;
}  // namespace

namespace {

int fig11(const am::Cli& cli, am::bench::BenchContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks", 64));
  const auto steps = static_cast<std::uint32_t>(cli.get_int("steps", 2));
  const auto max_cs = static_cast<std::uint32_t>(cli.get_int("max-cs", 5));
  const auto max_bw = static_cast<std::uint32_t>(cli.get_int("max-bw", 2));
  // --quick trims the hard-coded mapping/cube sweeps for smoke runs.
  const bool quick = cli.get_bool("quick", false);
  const std::vector<std::uint32_t> mappings =
      quick ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4};
  const std::vector<std::uint32_t> edges =
      quick ? std::vector<std::uint32_t>{22, 30}
            : std::vector<std::uint32_t>{22, 25, 28, 30, 32, 36};

  auto lulesh_cfg = [&](std::uint32_t edge) {
    auto cfg = am::apps::LuleshConfig::paper(edge, ctx.scale);
    cfg.steps = steps;
    return cfg;
  };

  // Names embed ranks/steps/cube/mapping: a workload's name is its
  // identity in the ResultStore, so distinct configurations must never
  // share one — while the one cell both sweeps visit (p=1 × 22^3) is
  // memoized into a single workload, simulated and stored once.
  am::measure::ExperimentPlan plan;
  am::bench::CellMemo cells;
  auto cell = [&](std::uint32_t p, std::uint32_t edge) {
    return cells.get(plan, p, edge, [&] {
      return am::measure::WorkloadSpec{
          "lulesh r" + std::to_string(ranks) + " s" + std::to_string(steps) +
              " map p=" + std::to_string(p) + " cube " +
              std::to_string(edge) + "^3",
          am::measure::make_lulesh_workload(ranks, p, lulesh_cfg(edge)),
          am::measure::mpi_interference_groups(ctx.machine, ranks, p)};
    });
  };
  std::vector<am::bench::DegradationRow> rows;
  for (const std::uint32_t p : mappings) {
    const std::uint32_t free_cores = ctx.machine.cores_per_socket - p;
    const auto id = cell(p, 22);
    plan.add_sweep(id, Resource::kCacheStorage, 0,
                   std::min(max_cs, free_cores));
    plan.add_sweep(id, Resource::kBandwidth, 0, std::min(max_bw, free_cores));
    rows.push_back({id, "map", p});
  }
  for (const std::uint32_t edge : edges) {
    const auto id = cell(1, edge);
    plan.add_sweep(id, Resource::kCacheStorage, 0, max_cs);
    plan.add_sweep(id, Resource::kBandwidth, 0, max_bw);
    rows.push_back({id, "cube", edge});
  }

  auto store = am::bench::make_store(ctx);
  am::measure::SweepRunnerOptions opts;
  opts.seed = ctx.seed;
  opts.mix_seed_per_point = false;  // all levels share the workload seed
  opts.cs = ctx.cs_config();
  opts.bw = ctx.bw_config();
  opts.checkpoint = store.checkpointer();  // keep finished runs on a crash
  const am::measure::SweepRunner runner(ctx.machine, opts);
  am::ThreadPool pool;
  const auto table = am::measure::execute_plan(ctx.sched, plan, runner,
                                               store, &pool, std::cout);
  if (!table) return 0;  // worker/probe: output is store or plan files

  am::bench::emit_degradation_tables(
      *table, rows, "map", "p/processor",
      "Fig. 11 top: Lulesh 22^3, mapping sweep vs ", ctx);
  am::bench::emit_degradation_tables(
      *table, rows, "cube", "cube edge",
      "Fig. 11 bottom: Lulesh cube sweep (1 process/processor) vs ", ctx);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig11_lulesh_degradation",
                               /*default_scale=*/16, /*nodes=*/32, fig11);
}
