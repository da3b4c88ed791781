#pragma once
// Shared plumbing for the per-figure bench drivers: scaled machine
// construction, scaled interference configurations, the synthetic-
// benchmark experiment used by Fig. 5 and Fig. 6, and the `run_driver`
// entry-point wrapper that makes a driver exec-able as a supervised
// lease worker (`--lease FILE --worker`, see measure::run_worker_entry).
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/units.hpp"
#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/lease.hpp"
#include "measure/result_store.hpp"
#include "model/ehr_model.hpp"

namespace am::bench {

struct BenchContext {
  sim::MachineConfig machine;
  std::uint32_t scale = 1;
  std::string csv_path;     // empty = no CSV dump
  std::uint64_t seed = 1;
  std::string results_dir;  // empty = no persistent result store
  measure::SchedulingFlags sched;  // set by run_driver
  std::string driver;       // store-file naming stem (set by run_driver)

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
/// and --results-dir DIR (persistent result store). The scheduling
/// flags are run_driver's (measure::parse_scheduling_flags).
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
  return ctx;
}

/// The store backing one driver invocation (measure::open_store under
/// the driver name run_driver stamped into the context); disabled when
/// --results-dir is unset and no lease is set.
inline measure::ResultStoreFile make_store(const BenchContext& ctx) {
  return measure::open_store(ctx.results_dir, ctx.driver, ctx.sched);
}

/// Entry point every orchestratable driver routes its main through: the
/// shared worker entry (measure::run_worker_entry — scheduling flags,
/// heartbeat, crash marker, exit codes) around `body(cli, ctx)`, with
/// the common flags parsed into `ctx`.
template <typename Body>
int run_driver(int argc, char** argv, const std::string& driver,
               std::uint32_t default_scale, std::uint32_t nodes,
               Body&& body) {
  return measure::run_worker_entry(
      argc, argv, driver,
      [&](const Cli& cli, const measure::SchedulingFlags& sched) {
        BenchContext ctx = make_context(cli, default_scale, nodes);
        ctx.sched = sched;
        ctx.driver = driver;
        if (!sched.lease_path.empty() && !ctx.csv_path.empty())
          throw std::invalid_argument(
              "--csv cannot be combined with --lease: a worker emits no "
              "tables — merge the stores, then re-run with --csv");
        return body(cli, ctx);
      });
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

struct FigureCalibrations {
  measure::CapacityCalibration capacity;
  measure::BandwidthCalibration bandwidth;
};

/// The calibrations fig10 and fig12 turn thread counts into resource
/// availability with (--quick trims them). With --results-dir they are
/// served by and recorded into the calibration store every driver shares,
/// <results_dir>/calibration.tsv, whose cache economy is reported like a
/// grid store's; without it every probe runs.
inline FigureCalibrations figure_calibrations(const BenchContext& ctx,
                                              bool quick) {
  measure::CalibrationOptions copts;
  copts.max_threads = quick ? 2 : 5;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe = quick ? 20'000 : 150'000;
  copts.seed = ctx.seed;
  measure::ResultStoreFile store(ctx.results_dir, "calibration");
  const std::size_t held = store.store() ? store.store()->size() : 0;
  FigureCalibrations out{
      measure::calibrate_capacity(ctx.machine, ctx.cs_config(), copts,
                                  store.store()),
      measure::calibrate_bandwidth(ctx.machine, ctx.bw_config(), 2, ctx.seed,
                                   store.store())};
  if (store.store() != nullptr) {
    // Each probe that ran added one record. Capacity probes one per
    // (level, ratio, distribution); bandwidth the peak plus one per level.
    const std::size_t probes = out.capacity.available_bytes.size() *
                                   copts.buffer_to_l3_ratios.size() *
                                   copts.probe_distributions.size() +
                               1 + out.bandwidth.used_bytes_per_sec.size();
    store.finish(store.store()->size() - held, probes, std::cout);
  }
  return out;
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
  const apps::SyntheticConfig cfg{dist, 4, compute_ops,
                                  /*warmup=*/dist.n() * 3 / 2,
                                  measured_accesses};
  // The benchmark's own warm-up phase stands in for the interference
  // head start: the CSThrs start with it.
  auto spec = measure::InterferenceSpec::storage(k_csthr, ctx.cs_config());
  spec.warmup_cycles = 0;
  const auto run = measure::SimBackend(ctx.machine, ctx.seed)
                       .run(measure::make_synthetic_workload(cfg), spec);
  SynthOutcome out;
  out.miss_rate = run.app_l3_miss_rate;
  out.seconds = run.seconds;
  out.effective_capacity =
      model::EhrModel(dist, cfg.element_bytes).invert_capacity(out.miss_rate);
  return out;
}

}  // namespace am::bench
