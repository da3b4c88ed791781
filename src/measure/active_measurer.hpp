#pragma once
// The Active Measurement methodology itself (paper Fig. 1): sweep the
// interference level from zero upward, watch for the onset of performance
// degradation, and convert the sweep into (a) a sensitivity curve usable
// for prediction on less-capable memory systems and (b) bounds on the
// amount of resource each application process actively uses (§IV).
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "measure/calibration.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/sim_backend.hpp"
#include "model/predictor.hpp"

namespace am::measure {

struct SweepPoint {
  std::uint32_t threads = 0;        // interference threads per socket
  double seconds = 0.0;             // application runtime
  double resource_available = 0.0;  // bytes or bytes/s left per socket
};

struct SweepResult {
  Resource resource = Resource::kCacheStorage;
  std::vector<SweepPoint> points;

  /// Sensitivity curve over resource availability (for prediction).
  model::SensitivityCurve curve() const;

  /// Slowdown of point k relative to the uninterfered run.
  double slowdown(std::uint32_t k) const;
};

/// Paper §IV resource-use bounds: the application's per-process use lies
/// above what was available at the first degraded level and at or below
/// what was available at the last non-degraded level.
struct ResourceBounds {
  double lower = 0.0;  // per process
  double upper = 0.0;  // per process
  bool degraded_at_any_level = false;
  bool fits_at_all_levels = false;  // never degraded: only an upper bound
};

/// One entry of a sweep_grid request: a workload swept against both
/// interference resources (either sweep may be empty).
struct GridRequest {
  SimBackend::WorkloadFactory factory;
  std::string name;
  std::uint32_t storage_threads = 0;    // sweep 0..storage_threads CSThrs
  std::uint32_t bandwidth_threads = 0;  // sweep 0..bandwidth_threads BWThrs
  std::uint32_t interference_groups = 1;  // WorkloadSpec's cost-model hint
};

/// Both sweeps of one GridRequest; they share a single baseline run.
struct GridSweeps {
  SweepResult storage;
  SweepResult bandwidth;
};

/// A grid's ExperimentPlan and the SweepRunner that executes it. Built
/// without calibration, it is all a probe or a lease worker needs
/// (measure::execute_plan); ActiveMeasurer::assemble_grid turns the
/// executed table into sweeps.
struct GridPlan {
  ExperimentPlan plan;
  SweepRunner runner;
  std::vector<WorkloadId> ids;  // ids[i]: requests[i]'s workload
};

/// Builds the plan of several workloads' storage and bandwidth sweeps:
/// one shared baseline per workload (instead of one per sweep), so the
/// whole grid runs as one plan. Every level runs under the backend's
/// seed, so sweeps stay comparable level to level. `checkpoint` (e.g.
/// ResultStoreFile::checkpointer) is the runner's
/// SweepRunnerOptions::checkpoint.
GridPlan plan_grid(const SimBackend& backend,
                   const std::vector<GridRequest>& requests,
                   const interfere::CSThrConfig& cs = {},
                   const interfere::BWThrConfig& bw = {},
                   std::function<void(const ResultStore&)> checkpoint = {});

class ActiveMeasurer {
 public:
  /// The calibrations translate thread counts into resource availability.
  ActiveMeasurer(SimBackend& backend, CapacityCalibration capacity,
                 BandwidthCalibration bandwidth);

  /// Experiments run over this pool from now on (nullptr = serially).
  /// Results never depend on the pool: each experiment's seed is a function
  /// of its position in the plan, not of scheduling.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Result cache consulted and filled by sweep_grid from now on (nullptr
  /// = always recompute). Persisting the store between invocations makes
  /// re-running an unchanged grid free; the caller owns save/load.
  /// `checkpoint` (e.g. ResultStoreFile::checkpointer) is invoked after
  /// every freshly executed point, so a killed process keeps its finished
  /// runs on disk.
  void set_store(ResultStore* store,
                 std::function<void(const ResultStore&)> checkpoint = {}) {
    store_ = store;
    checkpoint_ = std::move(checkpoint);
  }

  /// Engine runs actually executed by the most recent sweep_grid call
  /// (cache hits excluded), and the number of grid points it planned.
  /// The difference is the cache hits.
  std::size_t last_executed() const { return last_executed_; }
  std::size_t last_planned() const { return last_planned_; }

  /// Runs the workload with 0..max_threads interference threads per socket.
  /// Delegates to SweepRunner; every level reuses the backend's seed, so
  /// the result is bit-identical to the historical serial loop.
  SweepResult sweep(const SimBackend::WorkloadFactory& factory,
                    Resource resource, std::uint32_t max_threads,
                    const interfere::CSThrConfig& cs = {},
                    const interfere::BWThrConfig& bw = {});

  /// Runs a whole grid in-process: plan_grid, one cache-aware run over
  /// the configured pool and store, then assemble_grid.
  std::vector<GridSweeps> sweep_grid(const std::vector<GridRequest>& requests,
                                     const interfere::CSThrConfig& cs = {},
                                     const interfere::BWThrConfig& bw = {});

  /// Assembles each request's two sweeps from `table`, the executed
  /// plan of `grid` (plan_grid over the same requests), translating
  /// thread counts into resource availability through the calibrations.
  /// Throws std::invalid_argument when a calibration is shorter than a
  /// request's sweep.
  std::vector<GridSweeps> assemble_grid(
      const GridPlan& grid, const std::vector<GridRequest>& requests,
      const ResultTable& table) const;

  /// Derives per-process bounds from a sweep, given how many application
  /// processes share each socket. `tolerance` is the degradation threshold
  /// (the paper treats ~5% as the noise floor).
  static ResourceBounds bounds(const SweepResult& sweep,
                               std::uint32_t processes_per_socket,
                               double tolerance = 0.05);

 private:
  void check_calibration(Resource resource, std::uint32_t max_threads) const;
  double availability(Resource resource, std::uint32_t k) const;
  SweepResult assemble(const ResultTable& table, WorkloadId workload,
                       Resource resource, std::uint32_t max_threads) const;

  SimBackend* backend_;
  CapacityCalibration capacity_;
  BandwidthCalibration bandwidth_;
  ThreadPool* pool_ = nullptr;
  ResultStore* store_ = nullptr;
  std::function<void(const ResultStore&)> checkpoint_;
  std::size_t last_executed_ = 0;
  std::size_t last_planned_ = 0;
};

}  // namespace am::measure
