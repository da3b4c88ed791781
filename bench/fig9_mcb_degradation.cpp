// Fig. 9 of the paper: MCB (24 MPI ranks) performance degradation under
// interference.
//   Top charts:    20k particles, process mappings p in {1,2,3,4,6} per
//                  processor, vs number of CSThrs (left) / BWThrs (right).
//   Bottom charts: 1 process per processor, particle counts 20k..260k.
//
// Paper reference shape: (a) the more processes per processor, the fewer
// CSThrs it takes to degrade; (b) with 20k-260k particles, <= 3 CSThrs
// cause little degradation while 4-5 cause ~20-25%; (c) BW interference
// impact grows to ~90k particles, then falls as MCB becomes compute-bound.
#include "bench_util.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"

namespace {
using am::measure::Resource;
}  // namespace

namespace {

int fig9(const am::Cli& cli, am::bench::BenchContext& ctx) {
  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks", 24));
  const auto steps = static_cast<std::uint32_t>(cli.get_int("steps", 3));
  const auto max_cs = static_cast<std::uint32_t>(cli.get_int("max-cs", 5));
  const auto max_bw = static_cast<std::uint32_t>(cli.get_int("max-bw", 2));
  // --quick trims the hard-coded mapping/particle sweeps for smoke runs.
  const bool quick = cli.get_bool("quick", false);
  const std::vector<std::uint32_t> mappings =
      quick ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 3, 4, 6};
  const std::vector<std::uint32_t> particle_counts =
      quick ? std::vector<std::uint32_t>{20'000, 90'000}
            : std::vector<std::uint32_t>{20'000, 60'000, 90'000, 140'000,
                                         180'000, 220'000, 260'000};

  auto mcb_cfg = [&](std::uint32_t particles) {
    auto cfg = am::apps::McbConfig::paper(particles, ctx.scale);
    cfg.steps = steps;
    return cfg;
  };

  // Declare the whole grid once; the runner owns pooling, seeds and the
  // baseline table.
  // Workload names embed every parameter that shapes the runs (ranks,
  // steps, particles, mapping): the name is the workload's identity in the
  // ResultStore, so distinct configurations must never share one — while
  // the one cell both sweeps visit (p=1 × 20k particles) is memoized into
  // a single workload, so its runs are simulated and stored once.
  am::measure::ExperimentPlan plan;
  am::bench::CellMemo cells;
  auto cell = [&](std::uint32_t p, std::uint32_t particles) {
    return cells.get(plan, p, particles, [&] {
      return am::measure::WorkloadSpec{
          "mcb r" + std::to_string(ranks) + " s" + std::to_string(steps) +
              " map p=" + std::to_string(p) + " particles=" +
              std::to_string(particles),
          am::measure::make_mcb_workload(ranks, p, mcb_cfg(particles)),
          am::measure::mpi_interference_groups(ctx.machine, ranks, p)};
    });
  };
  std::vector<am::bench::DegradationRow> rows;
  // Top: mapping sweep at 20k particles.
  for (const std::uint32_t p : mappings) {
    const std::uint32_t free_cores = ctx.machine.cores_per_socket - p;
    const auto id = cell(p, 20'000);
    plan.add_sweep(id, Resource::kCacheStorage, 0,
                   std::min(max_cs, free_cores));
    plan.add_sweep(id, Resource::kBandwidth, 0, std::min(max_bw, free_cores));
    rows.push_back({id, "map", p});
  }
  // Bottom: particle sweep at 1 process per processor.
  for (const std::uint32_t particles : particle_counts) {
    const auto id = cell(1, particles);
    plan.add_sweep(id, Resource::kCacheStorage, 0, max_cs);
    plan.add_sweep(id, Resource::kBandwidth, 0, max_bw);
    rows.push_back({id, "particles", particles});
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
      "Fig. 9 top: MCB 20k particles, mapping sweep vs ", ctx);
  am::bench::emit_degradation_tables(
      *table, rows, "particles", "particles",
      "Fig. 9 bottom: MCB particle sweep (1 process/processor) vs ", ctx);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "fig9_mcb_degradation",
                               /*default_scale=*/16, /*nodes=*/12, fig9);
}
