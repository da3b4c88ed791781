#pragma once
// Shared plumbing for the per-figure bench drivers: scaled machine
// construction, scaled interference configurations, the synthetic-
// benchmark experiment used by Fig. 5 and Fig. 6, and the `run_driver`
// entry-point wrapper that makes a driver exec-able as a supervised
// lease worker (`--lease FILE --worker`, see measure::SweepOrchestrator).
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/heartbeat.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/work_lease.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/units.hpp"
#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "measure/active_measurer.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/lease.hpp"
#include "measure/orchestrator.hpp"
#include "measure/result_store.hpp"
#include "model/ehr_model.hpp"
#include "sim/engine.hpp"

namespace am::bench {

struct BenchContext {
  sim::MachineConfig machine;
  std::uint32_t scale = 1;
  std::string csv_path;     // empty = no CSV dump
  std::uint64_t seed = 1;
  std::string results_dir;  // empty = no persistent result store
  ShardRange shard;         // --shard i/n; default = whole plan
  std::string lease_path;   // --lease FILE: dynamic lease-worker mode
  std::string emit_plan_path;  // --emit-plan FILE: scheduler probe mode
  std::string driver;       // store-file naming stem (set by run_driver)
  bool worker = false;      // --worker: supervised worker mode

  interfere::CSThrConfig cs_config() const {
    interfere::CSThrConfig c;
    c.buffer_bytes = std::max<std::uint64_t>(4096, 4ull * 1024 * 1024 / scale);
    return c;
  }
  interfere::BWThrConfig bw_config() const {
    interfere::BWThrConfig c;
    c.buffer_bytes = std::max<std::uint64_t>(4096, 520ull * 1024 / scale);
    return c;
  }
  /// Buffer sizes in the paper's 30-74 MB range (scaled), `count` steps.
  std::vector<std::uint64_t> paper_buffer_bytes(std::size_t count) const {
    std::vector<std::uint64_t> out;
    const double lo = 30.0 * 1024 * 1024 / scale;
    const double hi = 74.0 * 1024 * 1024 / scale;
    for (std::size_t i = 0; i < count; ++i) {
      const double frac =
          count > 1 ? static_cast<double>(i) / (count - 1) : 0.0;
      out.push_back(static_cast<std::uint64_t>(lo + frac * (hi - lo)) /
                    64 * 64);
    }
    return out;
  }
};

/// Parses the common flags: --scale N (default 16, geometry-preserving),
/// --full (paper-size machine), --nodes, --csv path, --seed,
/// --set-hash mask|h3 (the shared L3's set-index function, see
/// sim::apply_set_hash — h3 changes placement and therefore results and
/// store keys), --mem-backend channel|banked|ddr4|hbm (memory model below
/// the L3, see sim::apply_mem_backend — this too changes results and
/// store keys) with banked-DRAM overrides --dram-channels, --dram-banks,
/// --dram-row-bytes, --dram-refresh-interval and --dram-refresh-cycles
/// (cycles; applied after the preset, validated together),
/// --results-dir DIR (persistent result store), --shard i/n (manual
/// multi-host slice), --lease FILE (lease-worker mode), --emit-plan FILE
/// (scheduler probe). The three scheduling flags are mutually exclusive
/// — each fixes the invocation's entire control flow.
inline BenchContext make_context(const Cli& cli,
                                 std::uint32_t default_scale = 16,
                                 std::uint32_t nodes = 1) {
  BenchContext ctx;
  ctx.scale = cli.get_bool("full", false)
                  ? 1
                  : static_cast<std::uint32_t>(
                        cli.get_int("scale", default_scale));
  ctx.machine = sim::MachineConfig::xeon20mb_scaled(
      ctx.scale, static_cast<std::uint32_t>(cli.get_int("nodes", nodes)));
  sim::apply_set_hash(ctx.machine, cli.get("set-hash", "mask"));
  sim::apply_mem_backend(ctx.machine, cli.get("mem-backend", "channel"));
  {
    auto& d = ctx.machine.dram;
    auto u32 = [&](const char* flag, std::uint32_t cur) {
      return static_cast<std::uint32_t>(
          cli.get_int(flag, static_cast<std::int64_t>(cur)));
    };
    d.channels = u32("dram-channels", d.channels);
    d.banks = u32("dram-banks", d.banks);
    d.row_bytes = u32("dram-row-bytes", d.row_bytes);
    d.refresh_interval = static_cast<sim::Cycles>(cli.get_int(
        "dram-refresh-interval", static_cast<std::int64_t>(d.refresh_interval)));
    d.refresh_cycles = static_cast<sim::Cycles>(cli.get_int(
        "dram-refresh-cycles", static_cast<std::int64_t>(d.refresh_cycles)));
    ctx.machine.validate();
  }
  ctx.csv_path = cli.get("csv", "");
  ctx.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  ctx.results_dir = cli.get("results-dir", "");
  const auto sched = measure::parse_scheduling_flags(cli);
  ctx.shard = sched.shard;
  ctx.lease_path = sched.lease_path;
  ctx.emit_plan_path = sched.emit_plan_path;
  // (--shard without --results-dir is rejected by ResultStoreFile.)
  if ((ctx.shard.sharded() || !ctx.lease_path.empty()) &&
      !ctx.csv_path.empty())
    throw std::invalid_argument(
        "--csv cannot be combined with --shard/--lease: a worker emits no "
        "tables — merge the stores, then re-run unsharded with --csv");
  return ctx;
}

/// The persistent store backing one driver invocation (see
/// measure::ResultStoreFile); disabled when --results-dir is unset. A
/// lease worker's store lives next to its lease file and is seeded from
/// the canonical cache, so re-sweeps stay fully cached no matter which
/// worker ran a point last time.
inline measure::ResultStoreFile make_store(const BenchContext& ctx,
                                           const std::string& driver) {
  if (!ctx.lease_path.empty())
    return measure::ResultStoreFile::for_lease(ctx.results_dir, driver,
                                               ctx.lease_path);
  return measure::ResultStoreFile(ctx.results_dir, driver, ctx.shard);
}

/// make_store using the driver name run_driver stamped into the context.
inline measure::ResultStoreFile make_store(const BenchContext& ctx) {
  return make_store(ctx, ctx.driver);
}

/// Entry-point wrapper every orchestratable driver routes its main
/// through: parses the common flags, then runs `body(cli, ctx)`. What it
/// adds over a bare main is the worker contract of
/// measure::SweepOrchestrator:
///
///   * Machine-readable exit codes — flag/plan rejections
///     (std::invalid_argument) exit kWorkerExitUsage so the orchestrator
///     fails fast instead of retrying a doomed command, any other
///     exception exits kWorkerExitRunFailed (retryable); no exception
///     escapes to std::terminate's ambiguous SIGABRT.
///   * `--worker` mode (requires --lease): maintains a heartbeat file
///     next to the lease file for liveness supervision.
///   * `--test-crash-marker PATH` fault injection: the first invocation
///     to claim (atomically delete) the marker file dies via SIGKILL
///     before any work, so orchestrator kill/retry paths are testable
///     deterministically. Probe runs (`--emit-plan`) never claim the
///     marker — the injection targets workers, and a probe stealing it
///     would leave the kill/retry path untested.
template <typename Body>
int run_driver(int argc, char** argv, const std::string& driver,
               std::uint32_t default_scale, std::uint32_t nodes,
               Body&& body) {
  try {
    const Cli cli(argc, argv);
    BenchContext ctx = make_context(cli, default_scale, nodes);
    ctx.driver = driver;
    ctx.worker = cli.get_bool("worker", false);
    if (ctx.worker && ctx.lease_path.empty())
      throw std::invalid_argument(
          "--worker requires --lease: workers are lease workers");
    const auto marker = cli.get("test-crash-marker", "");
    if (!marker.empty() && ctx.emit_plan_path.empty() &&
        std::filesystem::remove(marker)) {
      std::fprintf(stderr, "%s: crash marker claimed, raising SIGKILL\n",
                   driver.c_str());
      std::raise(SIGKILL);
    }
    std::optional<HeartbeatWriter> heartbeat;
    if (ctx.worker) heartbeat.emplace(lease_heartbeat_path(ctx.lease_path));
    return body(cli, ctx);
  } catch (const std::invalid_argument& e) {
    std::cerr << driver << ": " << e.what() << "\n";
    return measure::kWorkerExitUsage;
  } catch (const std::exception& e) {
    std::cerr << driver << ": " << e.what() << "\n";
    return measure::kWorkerExitRunFailed;
  }
}

/// Executes a plan under whichever scheduling mode this invocation asked
/// for — the one call a SweepRunner-style driver (fig9/fig11/
/// mcb_mapping_study) makes instead of wiring the modes itself:
///
///   * `--emit-plan FILE`: write plan size + per-point cost estimates
///     for the scheduler and stop.
///   * `--lease FILE`: loop running leased batches until the scheduler
///     drains its queue.
///   * `--shard i/n`: run the slice, persist it, print the merge
///     handoff (the manual multi-host recipe).
///   * otherwise: the full (cache-aware) run.
///
/// Returns the assembled table only in the last case; nullopt means the
/// invocation was a worker/probe whose entire output is store or plan
/// files, and the driver should exit 0 without emitting figures.
inline std::optional<measure::ResultTable> execute_plan(
    const BenchContext& ctx, const measure::ExperimentPlan& plan,
    const measure::SweepRunner& runner, measure::ResultStoreFile& store,
    ThreadPool* pool) {
  if (!ctx.emit_plan_path.empty()) {
    measure::emit_plan_info(plan, runner, store.store(), ctx.emit_plan_path);
    std::cout << "plan info: " << plan.size() << " point(s) -> "
              << ctx.emit_plan_path << "\n";
    return std::nullopt;
  }
  if (!ctx.lease_path.empty()) {
    const auto report = measure::run_lease_worker(plan, runner, pool, store,
                                                  ctx.lease_path, std::cout);
    store.finish(report.executed, report.points, std::cout);
    return std::nullopt;
  }
  std::size_t executed = 0;
  auto table = runner.run(plan, pool, store.store(), ctx.shard, &executed);
  if (store.finish(executed, table.size(), std::cout))
    return std::nullopt;  // shard: merge, then re-run to emit
  return table;
}

/// The grid-request counterpart of execute_plan for ActiveMeasurer-style
/// drivers (fig10/fig12/coschedule_advisor). The measurer must already
/// have its pool and store configured (set_store with this `store`'s
/// ResultStore). True = the invocation was a probe/lease/shard worker
/// and is fully handled — the driver should exit 0 without assembling
/// sweeps.
inline bool grid_worker_modes(const BenchContext& ctx,
                              measure::ActiveMeasurer& measurer,
                              const std::vector<measure::GridRequest>& requests,
                              measure::ResultStoreFile& store,
                              const interfere::CSThrConfig& cs,
                              const interfere::BWThrConfig& bw) {
  if (!ctx.emit_plan_path.empty()) {
    measurer.sweep_grid_emit_plan(requests, ctx.emit_plan_path, cs, bw);
    std::cout << "plan info -> " << ctx.emit_plan_path << "\n";
    return true;
  }
  if (!ctx.lease_path.empty()) {
    const auto executed =
        measurer.sweep_grid_lease(requests, store, ctx.lease_path,
                                  std::cout, cs, bw);
    store.finish(executed, measurer.last_planned(), std::cout);
    return true;
  }
  if (ctx.shard.sharded()) {
    const auto executed = measurer.sweep_grid_shard(requests, ctx.shard,
                                                    cs, bw);
    store.finish(executed, measurer.last_planned(), std::cout);
    return true;
  }
  return false;
}

inline void emit(const Table& table, const BenchContext& ctx,
                 const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  std::cout << "machine: " << ctx.machine.name
            << " (L3 " << format_bytes(
                   static_cast<double>(ctx.machine.l3.size_bytes))
            << ", scale 1:" << ctx.scale << ")\n";
  table.print(std::cout);
  if (!ctx.csv_path.empty()) {
    if (table.save_csv(ctx.csv_path))
      std::cout << "csv written to " << ctx.csv_path << "\n";
    else
      std::cerr << "failed to write " << ctx.csv_path << "\n";
  }
}

/// Memoizes (mapping, size) → workload id so two sweeps that visit the
/// same grid cell (fig9/fig11: the mapping sweep's p=1 row is also the
/// size sweep's first row) share a single workload — one set of runs in
/// the plan and one set of records in the store, instead of the identical
/// experiment simulated twice under two names.
class CellMemo {
 public:
  /// `make_spec` is invoked only on the first sighting of (a, b).
  template <typename MakeSpec>
  measure::WorkloadId get(measure::ExperimentPlan& plan, std::uint32_t a,
                          std::uint32_t b, MakeSpec&& make_spec) {
    const auto key = std::make_pair(a, b);
    if (const auto it = cells_.find(key); it != cells_.end())
      return it->second;
    const auto id = plan.add_workload(make_spec());
    cells_.emplace(key, id);
    return id;
  }

 private:
  std::map<std::pair<std::uint32_t, std::uint32_t>, measure::WorkloadId>
      cells_;
};

/// One row group of a degradation table (fig9/fig11): a plan workload plus
/// the axis value (mapping, particle count, cube edge) it varies.
struct DegradationRow {
  measure::WorkloadId workload;
  std::string label;
  std::uint32_t axis;
};

/// Slowdown column entry; "n/a" when the baseline run is absent (e.g. a
/// trimmed sweep) instead of a division by a defaulted zero.
inline std::string slowdown_cell(const measure::ResultTable& table,
                                 measure::WorkloadId w, measure::Resource r,
                                 std::uint32_t k) {
  if (!table.has_baseline(w)) return "n/a";
  return Table::num(table.slowdown(w, r, k), 3);
}

/// Emits one table per resource for the rows matching `label`, iterating
/// thread counts straight out of the ResultTable (bandwidth tables skip
/// the k = 0 baseline row, as the paper's figures do).
inline void emit_degradation_tables(const measure::ResultTable& table,
                                    const std::vector<DegradationRow>& rows,
                                    const std::string& label,
                                    const char* axis_name,
                                    const std::string& title_prefix,
                                    const BenchContext& ctx) {
  for (const auto resource :
       {measure::Resource::kCacheStorage, measure::Resource::kBandwidth}) {
    Table t({axis_name, "threads", "time (ms)", "slowdown"});
    for (const auto& row : rows) {
      if (row.label != label) continue;
      const std::uint32_t first =
          resource == measure::Resource::kBandwidth ? 1 : 0;
      for (std::uint32_t k = first; table.has(row.workload, resource, k); ++k)
        t.add_row(
            {std::to_string(row.axis), std::to_string(k),
             Table::num(table.at(row.workload, resource, k).seconds * 1e3, 2),
             slowdown_cell(table, row.workload, resource, k)});
    }
    emit(t, ctx,
         title_prefix + measure::resource_name(resource) + " interference");
  }
}

/// One synthetic-benchmark experiment: the probe runs against `k` CSThrs
/// on the same socket; returns the measured L3 miss rate in steady state.
struct SynthOutcome {
  double miss_rate = 0.0;
  double seconds = 0.0;
  double effective_capacity = 0.0;  // via inverted Eq. 4
};

inline SynthOutcome run_synth_experiment(
    const BenchContext& ctx, const model::AccessDistribution& dist,
    std::uint32_t compute_ops, std::uint32_t k_csthr,
    std::uint64_t measured_accesses) {
  sim::Engine engine(ctx.machine, ctx.seed);
  apps::SyntheticConfig cfg{dist, 4, compute_ops,
                            /*warmup=*/dist.n() * 3 / 2, measured_accesses};
  auto bench = std::make_unique<apps::SyntheticBenchmarkAgent>(
      engine.memory(), cfg);
  auto* bench_raw = bench.get();
  const auto idx = engine.add_agent(std::move(bench), 0);
  for (std::uint32_t i = 0; i < k_csthr; ++i)
    engine.add_agent(std::make_unique<interfere::CSThrAgent>(engine.memory(),
                                                             ctx.cs_config()),
                     1 + i, /*primary=*/false);
  const sim::Cycles end = engine.run();
  SynthOutcome out;
  out.miss_rate = engine.agent_counters(idx).l3_miss_rate();
  out.seconds =
      ctx.machine.cycles_to_seconds(end - bench_raw->measure_start_cycle());
  out.effective_capacity =
      model::EhrModel(dist, 4).invert_capacity(out.miss_rate);
  return out;
}

}  // namespace am::bench
