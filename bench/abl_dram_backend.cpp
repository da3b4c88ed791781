// Ablation: what the banked DRAM backend adds over the flat channel pipe.
// A DRAM-bound synthetic probe (uniform over a buffer several L3s large,
// so essentially every access is a row-level DRAM event) is swept against
// CSThr and BWThr interference under each memory backend. The channel
// pipe sees bandwidth interference only as queueing on one serial bus;
// the banked backends additionally resolve row-buffer locality, bank
// conflicts and refresh — so the same interference sweep separates where
// the models disagree. Results flow through the ordinary
// ExperimentPlan/ResultStore path: backends produce distinct machine
// fingerprints, so their records coexist in one store with zero format
// changes.
//
// Worker/probe modes (--lease/--emit-plan) run the plan under the
// single backend `--mem-backend` selected, like every other driver; the
// full run sweeps all of channel/ddr4/hbm in-process. A side table prints
// the banked backends' row-hit/conflict/refresh tallies from a direct
// engine run (MemoryBackendStats is diagnostic-only and never enters the
// store).
#include "bench_util.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"

namespace {

using am::measure::Resource;

am::measure::ExperimentPlan make_plan(const am::bench::BenchContext& ctx,
                                      std::uint64_t accesses,
                                      std::uint32_t max_cs,
                                      std::uint32_t max_bw,
                                      am::measure::WorkloadId* id_out) {
  // Buffer ~4x the (scaled) L3 so the probe misses everywhere and the
  // backend, not the hierarchy, sets the pace.
  const std::uint64_t elements = ctx.machine.l3.size_bytes * 4 / 4;
  const am::apps::SyntheticConfig cfg{
      am::model::AccessDistribution::uniform(elements, "Uni"), 4,
      /*compute_ops=*/1, /*warmup=*/elements / 2, accesses};
  am::measure::ExperimentPlan plan;
  const auto id = plan.add_workload(
      {"dram-probe uniform elements=" + std::to_string(elements) +
           " accesses=" + std::to_string(accesses),
       am::measure::make_synthetic_workload(cfg)});
  plan.add_sweep(id, Resource::kCacheStorage, 0, max_cs);
  plan.add_sweep(id, Resource::kBandwidth, 0, max_bw);
  *id_out = id;
  return plan;
}

am::sim::MachineConfig backend_machine(const am::bench::BenchContext& ctx,
                                       const std::string& spec) {
  auto m = ctx.machine;
  am::sim::apply_mem_backend(m, spec);
  return m;
}

int abl(const am::Cli& cli, am::bench::BenchContext& ctx) {
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 60'000));
  const auto max_cs = static_cast<std::uint32_t>(cli.get_int("max-cs", 3));
  const auto max_bw = static_cast<std::uint32_t>(cli.get_int("max-bw", 2));

  am::measure::WorkloadId probe = 0;
  const auto plan = make_plan(ctx, accesses, max_cs, max_bw, &probe);
  auto store = am::bench::make_store(ctx);
  am::ThreadPool pool;

  am::measure::SweepRunnerOptions opts;
  opts.seed = ctx.seed;
  opts.cs = ctx.cs_config();
  opts.bw = ctx.bw_config();
  opts.checkpoint = store.checkpointer();

  // Worker/probe invocations: the plan under ctx.machine, orchestrated
  // like any fig driver (the scheduler picks the backend per invocation
  // via --mem-backend).
  if (!ctx.sched.emit_plan_path.empty() || !ctx.sched.lease_path.empty()) {
    const am::measure::SweepRunner runner(ctx.machine, opts);
    (void)am::measure::execute_plan(ctx.sched, plan, runner, store, &pool,
                                    std::cout);
    return 0;
  }

  // Full run: the same plan under each backend, one shared store.
  const std::vector<std::string> backends{"channel", "ddr4", "hbm"};
  am::Table t({"backend", "interference", "threads", "time (ms)",
               "slowdown"});
  for (const auto& spec : backends) {
    const auto machine = backend_machine(ctx, spec);
    const am::measure::SweepRunner runner(machine, opts);
    std::size_t executed = 0;
    const auto table = runner.run(plan, &pool, store.store(), {}, &executed);
    store.finish(executed, table.size(), std::cout);
    for (const auto resource :
         {Resource::kCacheStorage, Resource::kBandwidth}) {
      for (std::uint32_t k = 0; table.has(probe, resource, k); ++k)
        t.add_row({spec, am::measure::resource_name(resource),
                   std::to_string(k),
                   am::Table::num(table.at(probe, resource, k).seconds * 1e3,
                                  2),
                   am::bench::slowdown_cell(table, probe, resource, k)});
    }
  }
  am::bench::emit(t, ctx, "Ablation: memory backend vs interference");

  // Side table: bank/row/refresh event tallies from direct engine runs of
  // the probe alone (k = 0) under the banked presets.
  am::Table s({"backend", "row hits", "row empties", "row conflicts",
               "refreshes", "refresh stall cyc", "GB/s"});
  for (const auto& spec : backends) {
    if (spec == "channel") continue;
    const auto machine = backend_machine(ctx, spec);
    am::sim::Engine engine(machine, ctx.seed);
    const std::uint64_t elements = machine.l3.size_bytes * 4 / 4;
    const am::apps::SyntheticConfig cfg{
        am::model::AccessDistribution::uniform(elements, "Uni"), 4,
        /*compute_ops=*/1, /*warmup=*/elements / 2, accesses};
    engine.add_agent(std::make_unique<am::apps::SyntheticBenchmarkAgent>(
                         engine.memory(), cfg),
                     0);
    const auto end = engine.run();
    const auto& st = engine.memory().mem_backend(0).stats();
    const double seconds = machine.cycles_to_seconds(end);
    const double bw =
        static_cast<double>(engine.memory().mem_backend(0).total_bytes()) /
        seconds;
    s.add_row({spec, std::to_string(st.row_hits),
               std::to_string(st.row_empties),
               std::to_string(st.row_conflicts),
               std::to_string(st.refreshes),
               std::to_string(st.refresh_stall_cycles),
               am::Table::num(bw / 1e9, 2)});
  }
  am::bench::emit(s, ctx, "Banked-backend event tallies (probe alone)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::bench::run_driver(argc, argv, "abl_dram_backend",
                               /*default_scale=*/16, /*nodes=*/1, abl);
}
