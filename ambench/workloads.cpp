#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/cli.hpp"
#include "common/fingerprint.hpp"
#include "common/heartbeat.hpp"
#include "common/thread_pool.hpp"
#include "common/work_lease.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/lease.hpp"
#include "measure/orchestrator.hpp"
#include "measure/result_store.hpp"

namespace ambench {
namespace {

namespace fs = std::filesystem;
namespace measure = am::measure;
namespace sim = am::sim;
using measure::Resource;

// grid_cold and amsweep_lease run the fig9_mcb_degradation --quick grid
// (mappings {1,4} at 20k particles, particles {20k,90k} at one process per
// processor, each against 0..5 CSThrs and 0..2 BWThrs) at --scale 64
// --ranks 4 --steps 1. calib_cold and resweep_warm run
// fig10_mcb_resources --quick at --scale 512 --ranks 4 --steps 1. The
// sizes keep one iteration at a few seconds, so a run holds several.
constexpr std::uint32_t kGridScale = 64;
constexpr std::uint32_t kFig10Scale = 512;
constexpr std::uint32_t kNodes = 12;  // both drivers' machine
constexpr std::uint32_t kRanks = 4;
constexpr std::uint32_t kSteps = 1;
constexpr std::uint32_t kGridMaxCs = 5;
constexpr std::uint32_t kGridMaxBw = 2;
constexpr std::uint32_t kFig10Cs = 2;
constexpr std::uint32_t kFig10Bw = 1;
constexpr std::uint32_t kCalibThreads = 2;
constexpr std::uint32_t kFig10Particles = 20'000;
constexpr double kTolerance = 0.05;
const std::vector<std::uint32_t> kMappings{1, 4};
const std::vector<std::uint32_t> kParticles{20'000, 90'000};
const char* const kGridDriver = "ambench_grid";
const char* const kFig10Driver = "ambench_fig10";
// Set-ups that take microseconds are repeated this often per iteration
// (untraced) and their median kept, so setup_s is not one cold sample.
constexpr int kCheapSetupReps = 15;

sim::MachineConfig machine(std::uint32_t scale) {
  auto m = sim::MachineConfig::xeon20mb_scaled(scale, kNodes);
  m.validate();
  return m;
}

// The figure drivers' scaled interference buffers (bench_util.hpp's
// BenchContext::cs_config / bw_config).
am::interfere::CSThrConfig cs_config(std::uint32_t scale) {
  am::interfere::CSThrConfig c;
  c.buffer_bytes = std::max<std::uint64_t>(4096, 4ull * 1024 * 1024 / scale);
  return c;
}
am::interfere::BWThrConfig bw_config(std::uint32_t scale) {
  am::interfere::BWThrConfig c;
  c.buffer_bytes = std::max<std::uint64_t>(4096, 520ull * 1024 / scale);
  return c;
}

am::apps::McbConfig mcb_config(std::uint32_t particles, std::uint32_t scale) {
  auto cfg = am::apps::McbConfig::paper(particles, scale);
  cfg.steps = kSteps;
  return cfg;
}

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

template <typename F>
decltype(auto) in_span(Trace& trace, const char* name, std::uint64_t parent,
                       F&& f) {
  const ScopedSpan span(trace, name, parent);
  return f();
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Counters of one finished engine: every agent's core counters, the
/// interference agents' share, and the memory backends of every socket an
/// agent ran on. `own_agents` is the agent count the workload factory
/// left, so agents past it are the interference threads SimBackend added.
std::map<std::string, double> engine_tally(
    sim::Engine& engine, std::size_t own_agents,
    const std::vector<std::size_t>& primaries) {
  sim::Counters all;
  sim::Counters interference;
  std::set<sim::CoreId> cores;
  std::set<std::uint32_t> sockets;
  for (std::size_t i = 0; i < engine.agent_count(); ++i) {
    const sim::CoreId core = engine.agent_core(i);
    sockets.insert(engine.config().socket_of(core));
    if (!cores.insert(core).second) continue;
    all += engine.agent_counters(i);
    if (i >= own_agents) interference += engine.agent_counters(i);
  }
  sim::Cycles end = 0;
  for (const auto idx : primaries) end = std::max(end, engine.agent_clock(idx));
  double bytes = 0.0;
  double utilization = 0.0;
  for (const auto s : sockets) {
    const auto& backend = engine.memory().mem_backend(s);
    bytes += static_cast<double>(backend.total_bytes());
    utilization += backend.utilization(end);
  }
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.engines", 1.0},
      {"sim.accesses", d(all.accesses())},
      {"sim.l1_hits", d(all.l1_hits)},
      {"sim.l1_filter_hits", d(all.l1_filter_hits)},
      {"sim.l2_hits", d(all.l2_hits)},
      {"sim.l2_filter_hits", d(all.l2_filter_hits)},
      {"sim.l3_hits", d(all.l3_hits)},
      {"sim.mem_accesses", d(all.mem_accesses)},
      {"sim.prefetch_issued", d(all.prefetch_issued)},
      {"sim.prefetch_dropped", d(all.prefetch_dropped)},
      {"sim.writebacks", d(all.writebacks)},
      {"sim.stall_cycles", d(all.stall_cycles)},
      {"sim.cycles", d(end)},
      {"sim.backend_bytes", bytes},
      {"sim.backend_utilization_sum", utilization},
      {"sim.backend_sockets", d(sockets.size())},
      {"interfere.accesses", d(interference.accesses())},
      {"interfere.agents", d(engine.agent_count() - own_agents)},
  };
}

/// Wraps a workload factory so a traced run records, per engine run, the
/// factory call (apps.setup), the span from factory return to the
/// measure_start callback — SimBackend adding the interference agents and
/// Engine::run — (sim.run), and the engine's counters. The wrapper
/// returns what SimBackend would use without it: the workload's own
/// measure_start if it set one, else the interference warm-up when any
/// interference agent started and 0 otherwise. An untraced run gets the
/// factory unchanged.
measure::SimBackend::WorkloadFactory traced_factory(
    measure::SimBackend::WorkloadFactory inner, Trace& trace) {
  if (!trace.enabled()) return inner;
  return [inner = std::move(inner), &trace](sim::Engine& engine) {
    const double t0 = Trace::now();
    measure::WorkloadInfo info = inner(engine);
    const double t1 = Trace::now();
    const std::size_t own_agents = engine.agent_count();
    info.measure_start = [&trace, &engine, t0, t1, own_agents,
                          primaries = info.primary_agents,
                          own_start = std::move(info.measure_start)](
                             const sim::Engine& done) -> sim::Cycles {
      const double t2 = Trace::now();
      const sim::Cycles start =
          own_start ? own_start(done)
          : done.agent_count() > own_agents
              ? measure::InterferenceSpec{}.warmup_cycles
              : 0;
      const auto point =
          trace.add("measure.point", trace.point_parent(), t0, t2);
      trace.add("apps.setup", point, t0, t1);
      trace.add("sim.run", point, t1, t2);
      trace.count_all(engine_tally(engine, own_agents, primaries));
      return start;
    };
    return info;
  };
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

/// Wraps a store checkpointer so a traced run records each call that
/// rewrote the store file. The checkpointer throttles itself; a save is
/// visible as a new inode, since saves replace the file by rename.
std::function<void(const measure::ResultStore&)> traced_checkpoint(
    std::function<void(const measure::ResultStore&)> inner,
    const std::string& path, Trace& trace) {
  if (!trace.enabled() || !inner) return inner;
  return [inner = std::move(inner), path,
          &trace](const measure::ResultStore& store) {
    const ino_t before = inode_of(path);
    const double t0 = Trace::now();
    inner(store);
    const double t1 = Trace::now();
    if (inode_of(path) != before) {
      trace.add("measure.store_save", trace.point_parent(), t0, t1);
      trace.count("measure.store_saves", 1.0);
    }
  };
}

/// Persists a store the way the figure drivers do at the end of a sweep.
void finish_store(measure::ResultStoreFile& store, std::size_t executed,
                  std::size_t planned, Trace& trace, std::uint64_t parent) {
  std::ostringstream sink;
  in_span(trace, "measure.store_save", parent,
          [&] { return store.finish(executed, planned, sink); });
  trace.count("measure.store_saves", 1.0);
}

measure::ExperimentPlan grid_plan(Trace& trace) {
  const std::uint32_t cores = machine(kGridScale).cores_per_socket;
  measure::ExperimentPlan plan;
  // One workload per (mapping, particles) cell; the cell both sweeps
  // visit (p=1 x 20k) is shared, as in the figure driver.
  std::map<std::pair<std::uint32_t, std::uint32_t>, measure::WorkloadId>
      cells;
  auto cell = [&](std::uint32_t p, std::uint32_t particles) {
    const auto key = std::make_pair(p, particles);
    if (const auto it = cells.find(key); it != cells.end()) return it->second;
    const auto id = plan.add_workload(
        {"mcb r" + std::to_string(kRanks) + " s" + std::to_string(kSteps) +
             " map p=" + std::to_string(p) +
             " particles=" + std::to_string(particles),
         traced_factory(measure::make_mcb_workload(
                            kRanks, p, mcb_config(particles, kGridScale)),
                        trace)});
    cells.emplace(key, id);
    return id;
  };
  for (const std::uint32_t p : kMappings) {
    const auto id = cell(p, kParticles.front());
    plan.add_sweep(id, Resource::kCacheStorage, 0,
                   std::min(kGridMaxCs, cores - p));
    plan.add_sweep(id, Resource::kBandwidth, 0,
                   std::min(kGridMaxBw, cores - p));
  }
  for (const std::uint32_t particles : kParticles) {
    const auto id = cell(1, particles);
    plan.add_sweep(id, Resource::kCacheStorage, 0, kGridMaxCs);
    plan.add_sweep(id, Resource::kBandwidth, 0, kGridMaxBw);
  }
  return plan;
}

measure::SweepRunnerOptions grid_options(std::uint64_t seed) {
  measure::SweepRunnerOptions opts;
  opts.seed = seed;
  opts.mix_seed_per_point = false;  // as fig9: all levels share the seed
  opts.cs = cs_config(kGridScale);
  opts.bw = bw_config(kGridScale);
  return opts;
}

std::size_t timed_out_points(const measure::ResultTable& table,
                             const measure::ExperimentPlan& plan) {
  std::size_t n = 0;
  for (const auto& pt : plan.points())
    if (table.at(pt.workload, pt.resource, pt.threads).timed_out) ++n;
  return n;
}

/// Runs `setup(span)` as an iteration's set-up and returns its result.
/// In untraced iterations it is repeated `reps` times — earlier results
/// are discarded — and setup_s is the median.
template <typename Setup>
auto set_up(Iteration& it, Trace& trace, int reps, Setup&& setup) {
  std::vector<double> times;
  for (int r = 1;; ++r) {
    const double t0 = Trace::now();
    const auto span = trace.open("bench.setup", 0);
    auto state = setup(span);
    trace.close(span);
    times.push_back(Trace::now() - t0);
    if (r >= reps || trace.enabled()) {
      it.setup_s = median(times);
      return state;
    }
  }
}

/// Runs `timed(span)` as an iteration's timed phase. An exception fails
/// every point the phase owned; its message goes to stderr.
template <typename F>
void timed_phase(Iteration& it, Trace& trace, F&& timed) {
  const double wall0 = Trace::now();
  const double cpu0 = cpu_seconds();
  const auto span = trace.open("bench.timed", 0);
  try {
    timed(span);
  } catch (const std::exception& e) {
    std::cerr << "ambench: timed phase threw: " << e.what() << "\n";
    it.failed = it.attempted;
    it.digest = "threw";
  }
  trace.close(span);
  it.wall_s = Trace::now() - wall0;
  it.cpu_s = cpu_seconds() - cpu0;
}

struct GridSetup {
  measure::ExperimentPlan plan;
  measure::ResultStoreFile store;
  measure::SweepRunner runner;
  std::unique_ptr<am::ThreadPool> pool;
};

Iteration grid_cold(std::uint64_t seed, const std::string& dir, Trace& trace) {
  Iteration it;
  auto s = set_up(it, trace, kCheapSetupReps, [&](std::uint64_t parent) {
    auto plan = in_span(trace, "measure.plan_build", parent,
                        [&] { return grid_plan(trace); });
    measure::ResultStoreFile store(dir, kGridDriver);
    auto opts = grid_options(seed);
    opts.checkpoint =
        traced_checkpoint(store.checkpointer(), store.path(), trace);
    measure::SweepRunner runner(machine(kGridScale), opts);
    auto pool = in_span(trace, "common.pool_start", parent, [] {
      return std::make_unique<am::ThreadPool>(kPoolThreads);
    });
    return GridSetup{std::move(plan), std::move(store), std::move(runner),
                     std::move(pool)};
  });
  it.attempted = s.plan.size();

  std::optional<measure::ResultTable> table;
  std::size_t executed = 0;
  timed_phase(it, trace, [&](std::uint64_t parent) {
    const double t0 = Trace::now();
    {
      const ScopedSpan sweep(trace, "measure.sweep", parent);
      trace.set_point_parent(sweep.id());
      table = s.runner.run(s.plan, s.pool.get(), s.store.store(), {},
                           &executed);
    }
    trace.count("measure.pool_thread_s", (Trace::now() - t0) * kPoolThreads);
    finish_store(s.store, executed, s.plan.size(), trace, parent);
  });
  if (!table) return it;
  it.failed = timed_out_points(*table, s.plan);
  it.digest = store_digest(s.store.path());
  trace.count_all(
      {{"measure.points_planned", static_cast<double>(s.plan.size())},
       {"measure.points_executed", static_cast<double>(executed)},
       {"common.pool_threads", static_cast<double>(kPoolThreads)}});
  return it;
}

measure::CalibrationOptions calib_options(std::uint64_t seed) {
  // fig10_mcb_resources --quick.
  measure::CalibrationOptions copts;
  copts.max_threads = kCalibThreads;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe = 20'000;
  copts.seed = seed;
  return copts;
}

/// Engines calibrate_capacity + calibrate_bandwidth build for `copts`:
/// one probe per (level, ratio, distribution), plus the bandwidth peak
/// probe and one window per level.
std::size_t probe_engines(const measure::CalibrationOptions& copts) {
  return (copts.max_threads + 1) * copts.buffer_to_l3_ratios.size() *
             copts.probe_distributions.size() +
         1 + (kCalibThreads + 1);
}

struct Calibrations {
  measure::CapacityCalibration capacity;
  measure::BandwidthCalibration bandwidth;
};

Calibrations calibrate(const sim::MachineConfig& m,
                       const measure::CalibrationOptions& copts,
                       std::uint64_t seed, Trace& trace,
                       std::uint64_t parent) {
  Calibrations c;
  c.capacity = in_span(trace, "measure.calib_capacity", parent, [&] {
    return measure::calibrate_capacity(m, cs_config(kFig10Scale), copts);
  });
  c.bandwidth = in_span(trace, "measure.calib_bandwidth", parent, [&] {
    return measure::calibrate_bandwidth(m, bw_config(kFig10Scale),
                                        kCalibThreads, seed);
  });
  trace.count("measure.calib_probe_engines",
              static_cast<double>(probe_engines(copts)));
  return c;
}

void mix_calibrations(am::Fingerprint& fp, const Calibrations& c) {
  for (const double v : c.capacity.available_bytes) fp.mix(hex(v));
  for (const double v : c.capacity.stddev_bytes) fp.mix(hex(v));
  fp.mix(hex(c.bandwidth.peak_bytes_per_sec));
  for (const double v : c.bandwidth.used_bytes_per_sec) fp.mix(hex(v));
}

struct CalibSetup {
  sim::MachineConfig machine;
  measure::CalibrationOptions options;
};

Iteration calib_cold(std::uint64_t seed, const std::string&, Trace& trace) {
  Iteration it;
  const auto s = set_up(it, trace, kCheapSetupReps, [&](std::uint64_t) {
    return CalibSetup{machine(kFig10Scale), calib_options(seed)};
  });
  it.attempted = probe_engines(s.options);

  std::optional<Calibrations> calib;
  timed_phase(it, trace, [&](std::uint64_t parent) {
    calib = calibrate(s.machine, s.options, seed, trace, parent);
  });
  if (!calib) return it;
  am::Fingerprint fp;
  mix_calibrations(fp, *calib);
  it.digest = fp.hex();
  return it;
}

std::vector<measure::GridRequest> fig10_requests(Trace& trace) {
  const std::uint32_t cores = machine(kFig10Scale).cores_per_socket;
  std::vector<measure::GridRequest> requests;
  for (const std::uint32_t p : kMappings)
    requests.push_back(
        {traced_factory(
             measure::make_mcb_workload(
                 kRanks, p, mcb_config(kFig10Particles, kFig10Scale)),
             trace),
         "mcb r" + std::to_string(kRanks) + " s" + std::to_string(kSteps) +
             " particles=" + std::to_string(kFig10Particles) +
             " p=" + std::to_string(p),
         std::min(kFig10Cs, cores - p), std::min(kFig10Bw, cores - p)});
  return requests;
}

struct ResweepSetup {
  sim::MachineConfig machine;
  measure::CalibrationOptions options;
  std::vector<measure::GridRequest> requests;
  std::unique_ptr<am::ThreadPool> pool;
};

Iteration resweep_warm(std::uint64_t seed, const std::string& dir,
                       Trace& trace) {
  Iteration it;
  // Not repeated: the set-up writes the store the timed phase reads.
  auto s = set_up(it, trace, 1, [&](std::uint64_t parent) {
    ResweepSetup out{machine(kFig10Scale), calib_options(seed),
                     in_span(trace, "measure.plan_build", parent,
                             [&] { return fig10_requests(trace); }),
                     in_span(trace, "common.pool_start", parent, [] {
                       return std::make_unique<am::ThreadPool>(kPoolThreads);
                     })};
    // Pre-populate the store with a cold run of the same grid. Store keys
    // carry no calibration, so placeholder tables do here; the factories
    // are untraced so the timed phase's counters stay its own.
    const ScopedSpan span(trace, "measure.prepopulate", parent);
    Trace off(false);
    measure::SimBackend backend(out.machine, seed);
    measure::ActiveMeasurer warm(
        backend, {std::vector<double>(kCalibThreads + 1, 1.0), {}},
        {1.0, std::vector<double>(kCalibThreads + 1, 0.0)});
    warm.set_pool(out.pool.get());
    measure::ResultStoreFile cache(dir, kFig10Driver);
    warm.set_store(cache.store());
    warm.sweep_grid(fig10_requests(off), cs_config(kFig10Scale),
                    bw_config(kFig10Scale));
    finish_store(cache, warm.last_executed(), warm.last_planned(), off, 0);
    return out;
  });
  it.attempted = probe_engines(s.options);

  // The fig10 pipeline against the warm store: load, calibrate, sweep
  // (all hits), bounds, save.
  am::Fingerprint fp;
  std::size_t executed = 0;
  std::size_t planned = 0;
  timed_phase(it, trace, [&](std::uint64_t parent) {
    auto store = in_span(trace, "measure.store_load", parent, [&] {
      return measure::ResultStoreFile(dir, kFig10Driver);
    });
    const auto calib = calibrate(s.machine, s.options, seed, trace, parent);
    measure::SimBackend backend(s.machine, seed);
    measure::ActiveMeasurer measurer(backend, calib.capacity, calib.bandwidth);
    measurer.set_pool(s.pool.get());
    measurer.set_store(store.store(), traced_checkpoint(store.checkpointer(),
                                                        store.path(), trace));
    const double t0 = Trace::now();
    std::vector<measure::GridSweeps> sweeps;
    {
      const ScopedSpan span(trace, "measure.sweep_grid", parent);
      trace.set_point_parent(span.id());
      sweeps = measurer.sweep_grid(s.requests, cs_config(kFig10Scale),
                                   bw_config(kFig10Scale));
    }
    trace.count("measure.pool_thread_s", (Trace::now() - t0) * kPoolThreads);
    executed = measurer.last_executed();
    planned = measurer.last_planned();
    it.attempted += planned;
    const auto bounds = in_span(trace, "measure.bounds", parent, [&] {
      std::vector<measure::ResourceBounds> out;
      for (std::size_t i = 0; i < sweeps.size(); ++i)
        for (const auto* sweep : {&sweeps[i].storage, &sweeps[i].bandwidth})
          out.push_back(measure::ActiveMeasurer::bounds(*sweep, kMappings[i],
                                                        kTolerance));
      return out;
    });
    finish_store(store, executed, planned, trace, parent);

    mix_calibrations(fp, calib);
    for (const auto& grid : sweeps)
      for (const auto* sweep : {&grid.storage, &grid.bandwidth})
        for (const auto& pt : sweep->points) {
          fp.mix(pt.threads);
          fp.mix(hex(pt.seconds));
          fp.mix(hex(pt.resource_available));
        }
    for (const auto& b : bounds) {
      fp.mix(hex(b.lower));
      fp.mix(hex(b.upper));
      fp.mix(b.degraded_at_any_level);
      fp.mix(b.fits_at_all_levels);
    }
  });
  if (it.digest == "threw") return it;
  it.digest = fp.hex();
  // A warm re-sweep must be all hits; a miss means the cache was bypassed.
  if (executed != 0) {
    std::cerr << "ambench: resweep_warm executed " << executed
              << " point(s) against a warm store\n";
    it.digest = "cache-miss:" + it.digest;
  }
  trace.count_all({{"measure.points_planned", static_cast<double>(planned)},
                   {"measure.points_executed", static_cast<double>(executed)},
                   {"common.pool_threads", static_cast<double>(kPoolThreads)}});
  return it;
}

std::string self_exe() { return fs::read_symlink("/proc/self/exe").string(); }

Iteration amsweep_lease(std::uint64_t seed, const std::string& dir,
                        Trace& trace) {
  Iteration it;
  auto orchestrator = set_up(it, trace, kCheapSetupReps, [&](std::uint64_t) {
    measure::OrchestratorOptions o;
    o.worker_command = {self_exe(), "worker", "--seed", std::to_string(seed)};
    if (trace.enabled())
      o.worker_command.insert(o.worker_command.end(), {"--trace-dir", dir});
    o.results_dir = dir;
    o.driver = kGridDriver;
    o.schedule = measure::Schedule::kLease;
    o.workers = kWorkers;
    return measure::SweepOrchestrator(o);
  });
  Trace off(false);
  it.attempted = grid_plan(off).size();

  std::optional<measure::OrchestratorReport> report;
  std::uint64_t orchestrator_span = 0;
  std::ostringstream log;
  timed_phase(it, trace, [&](std::uint64_t parent) {
    const ScopedSpan span(trace, "measure.orchestrator", parent);
    orchestrator_span = span.id();
    report = orchestrator.run(log);
  });
  if (!report) return it;
  if (!report->success) {
    std::cerr << "ambench: orchestrator failed: " << report->error << "\n"
              << log.str();
    it.failed = std::max<std::size_t>(report->missing_points.size(), 1);
    it.digest = "orchestrator-failed";
    return it;
  }
  it.failed = report->missing_points.size();
  it.digest = store_digest(report->merged_path);

  if (trace.enabled()) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const auto name = entry.path().filename().string();
      if (name.rfind("trace-", 0) == 0)
        trace.absorb(entry.path().string(), orchestrator_span);
    }
    double busy_sum = 0.0;
    double busy_max = 0.0;
    std::size_t respawns = 0;
    for (const auto& w : report->worker_stats) {
      busy_sum += w.busy_seconds;
      busy_max = std::max(busy_max, w.busy_seconds);
      respawns += w.respawns;
    }
    const double wall = report->wall_seconds;
    const double workers = static_cast<double>(kWorkers);
    const double busy_mean =
        report->worker_stats.empty()
            ? 0.0
            : busy_sum / static_cast<double>(report->worker_stats.size());
    trace.count_all(
        {{"measure.orchestrator.idle_share",
          1.0 - busy_sum / (wall * workers)},
         {"measure.orchestrator.overhead_s", wall - busy_max},
         {"measure.orchestrator.leases",
          static_cast<double>(report->leases.size())},
         {"measure.orchestrator.busy_max_over_mean",
          busy_mean > 0.0 ? busy_max / busy_mean : 0.0},
         {"measure.orchestrator.respawns", static_cast<double>(respawns)},
         {"measure.orchestrator.workers", workers},
         {"measure.points_planned", static_cast<double>(it.attempted)},
         {"measure.pool_thread_s", wall * workers * kWorkerThreads},
         {"common.pool_threads", static_cast<double>(kWorkerThreads)}});
  }
  return it;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"grid_cold", grid_cold},
      {"calib_cold", calib_cold},
      {"resweep_warm", resweep_warm},
      {"amsweep_lease", amsweep_lease},
  };
  return all;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string store_digest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read store " + path);
  am::Fingerprint fp;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() != '#') {
      // Field 1 is the producing host's fingerprint.
      const auto a = line.find('\t');
      const auto b = a == std::string::npos ? a : line.find('\t', a + 1);
      if (b == std::string::npos)
        throw std::runtime_error("malformed store record in " + path);
      line.erase(a, b - a);
    }
    fp.mix(line);
  }
  return fp.hex();
}

std::size_t grid_timeouts_at_budget(std::uint64_t seed,
                                    std::uint64_t max_cycles) {
  Trace off(false);
  const auto plan = grid_plan(off);
  auto opts = grid_options(seed);
  opts.max_cycles = max_cycles;
  am::ThreadPool pool(kPoolThreads);
  const auto table =
      measure::SweepRunner(machine(kGridScale), opts).run(plan, &pool);
  return timed_out_points(table, plan);
}

int worker_main(int argc, char** argv) {
  try {
    const am::Cli cli(argc, argv);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const std::string results_dir = cli.get("results-dir", "");
    const std::string trace_dir = cli.get("trace-dir", "");
    const auto flags = measure::parse_scheduling_flags(cli);
    if (flags.lease_path.empty() == flags.emit_plan_path.empty())
      throw std::invalid_argument(
          "worker: need exactly one of --lease, --emit-plan");
    Trace trace(!trace_dir.empty());
    const auto root = trace.open(flags.lease_path.empty()
                                     ? "measure.plan_probe"
                                     : "measure.lease_worker",
                                 0);
    std::optional<am::HeartbeatWriter> heartbeat;
    if (cli.get_bool("worker", false) && !flags.lease_path.empty())
      heartbeat.emplace(am::lease_heartbeat_path(flags.lease_path));
    const auto plan = in_span(trace, "measure.plan_build", root,
                              [&] { return grid_plan(trace); });
    if (!flags.emit_plan_path.empty()) {
      measure::ResultStoreFile store(results_dir, kGridDriver);
      const measure::SweepRunner runner(machine(kGridScale),
                                        grid_options(seed));
      measure::emit_plan_info(plan, runner, store.store(),
                              flags.emit_plan_path);
    } else {
      auto store = measure::ResultStoreFile::for_lease(
          results_dir, kGridDriver, flags.lease_path);
      auto opts = grid_options(seed);
      opts.checkpoint =
          traced_checkpoint(store.checkpointer(), store.path(), trace);
      const measure::SweepRunner runner(machine(kGridScale), opts);
      am::ThreadPool pool(kWorkerThreads);
      trace.set_point_parent(root);
      const auto report = measure::run_lease_worker(
          plan, runner, &pool, store, flags.lease_path, std::cout);
      store.finish(report.executed, report.points, std::cout);
      trace.count("measure.points_executed",
                  static_cast<double>(report.executed));
    }
    trace.close(root);
    if (trace.enabled())
      trace.write(trace_dir + "/trace-" + std::to_string(::getpid()) +
                  ".tsv");
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "ambench worker: " << e.what() << "\n";
    return measure::kWorkerExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "ambench worker: " << e.what() << "\n";
    return measure::kWorkerExitRunFailed;
  }
}

}  // namespace ambench
