#include "measure/active_measurer.hpp"

#include <stdexcept>
#include <utility>

namespace am::measure {

model::SensitivityCurve SweepResult::curve() const {
  std::vector<model::SensitivityPoint> pts;
  pts.reserve(points.size());
  for (const auto& p : points)
    pts.push_back({p.resource_available, p.seconds});
  return model::SensitivityCurve(std::move(pts));
}

double SweepResult::slowdown(std::uint32_t k) const {
  if (points.empty()) throw std::logic_error("empty sweep");
  return points.at(k).seconds / points.front().seconds;
}

ActiveMeasurer::ActiveMeasurer(SimBackend& backend,
                               CapacityCalibration capacity,
                               BandwidthCalibration bandwidth)
    : backend_(&backend),
      capacity_(std::move(capacity)),
      bandwidth_(std::move(bandwidth)) {}

void ActiveMeasurer::check_calibration(Resource resource,
                                       std::uint32_t max_threads) const {
  if (resource == Resource::kCacheStorage &&
      max_threads >= capacity_.available_bytes.size())
    throw std::invalid_argument("sweep: capacity calibration too short");
  if (resource == Resource::kBandwidth &&
      max_threads >= bandwidth_.used_bytes_per_sec.size())
    throw std::invalid_argument("sweep: bandwidth calibration too short");
}

double ActiveMeasurer::availability(Resource resource, std::uint32_t k) const {
  return resource == Resource::kCacheStorage ? capacity_.available_bytes.at(k)
                                             : bandwidth_.available(k);
}

SweepResult ActiveMeasurer::assemble(const ResultTable& table,
                                     WorkloadId workload, Resource resource,
                                     std::uint32_t max_threads) const {
  SweepResult out;
  out.resource = resource;
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    SweepPoint pt;
    pt.threads = k;
    pt.seconds = table.at(workload, resource, k).seconds;
    pt.resource_available = availability(resource, k);
    out.points.push_back(pt);
  }
  return out;
}

SweepResult ActiveMeasurer::sweep(const SimBackend::WorkloadFactory& factory,
                                  Resource resource,
                                  std::uint32_t max_threads,
                                  const interfere::CSThrConfig& cs,
                                  const interfere::BWThrConfig& bw) {
  check_calibration(resource, max_threads);

  ExperimentPlan plan;
  const auto id = plan.add_workload({"sweep", factory});
  plan.add_sweep(id, resource, 0, max_threads);

  SweepRunnerOptions opts;
  opts.seed = backend_->seed();
  opts.mix_seed_per_point = false;  // every level shared the backend's seed
  opts.cs = cs;
  opts.bw = bw;
  const SweepRunner runner(backend_->machine(), opts);
  return assemble(runner.run(plan, pool_), id, resource, max_threads);
}

GridPlan plan_grid(const SimBackend& backend,
                   const std::vector<GridRequest>& requests,
                   const interfere::CSThrConfig& cs,
                   const interfere::BWThrConfig& bw,
                   std::function<void(const ResultStore&)> checkpoint) {
  ExperimentPlan plan;
  std::vector<WorkloadId> ids;
  for (const auto& req : requests) {
    const auto id =
        plan.add_workload({req.name, req.factory, req.interference_groups});
    plan.add_sweep(id, Resource::kCacheStorage, 0, req.storage_threads);
    plan.add_sweep(id, Resource::kBandwidth, 0, req.bandwidth_threads);
    ids.push_back(id);
  }
  SweepRunnerOptions opts;
  opts.seed = backend.seed();
  opts.mix_seed_per_point = false;  // sweeps stay comparable level-to-level
  opts.cs = cs;
  opts.bw = bw;
  opts.checkpoint = std::move(checkpoint);
  return {std::move(plan), SweepRunner(backend.machine(), std::move(opts)),
          std::move(ids)};
}

std::vector<GridSweeps> ActiveMeasurer::sweep_grid(
    const std::vector<GridRequest>& requests,
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) {
  const GridPlan grid = plan_grid(*backend_, requests, cs, bw, checkpoint_);
  last_planned_ = grid.plan.size();
  const ResultTable table = grid.runner.run(grid.plan, pool_, store_,
                                            ShardRange{}, &last_executed_);
  return assemble_grid(grid, requests, table);
}

std::vector<GridSweeps> ActiveMeasurer::assemble_grid(
    const GridPlan& grid, const std::vector<GridRequest>& requests,
    const ResultTable& table) const {
  for (const auto& req : requests) {
    check_calibration(Resource::kCacheStorage, req.storage_threads);
    check_calibration(Resource::kBandwidth, req.bandwidth_threads);
  }
  std::vector<GridSweeps> out;
  for (std::size_t i = 0; i < requests.size(); ++i)
    out.push_back({assemble(table, grid.ids.at(i), Resource::kCacheStorage,
                            requests[i].storage_threads),
                   assemble(table, grid.ids.at(i), Resource::kBandwidth,
                            requests[i].bandwidth_threads)});
  return out;
}

ResourceBounds ActiveMeasurer::bounds(const SweepResult& sweep,
                                      std::uint32_t processes_per_socket,
                                      double tolerance) {
  if (sweep.points.empty())
    throw std::invalid_argument("bounds: empty sweep");
  if (processes_per_socket == 0)
    throw std::invalid_argument("bounds: zero processes");
  const double baseline = sweep.points.front().seconds;
  const double limit = baseline * (1.0 + tolerance);

  ResourceBounds out;
  // The paper: among the non-degraded experiments pick the most interfered
  // one (upper bound on availability the app fits in), and among degraded
  // ones the least interfered (the app needs more than that availability).
  double best_ok = sweep.points.front().resource_available;
  bool any_degraded = false;
  double first_degraded_avail = 0.0;
  for (const auto& p : sweep.points) {
    if (p.seconds <= limit) {
      if (!any_degraded) best_ok = p.resource_available;
    } else if (!any_degraded) {
      any_degraded = true;
      first_degraded_avail = p.resource_available;
    }
  }
  const double denom = static_cast<double>(processes_per_socket);
  out.degraded_at_any_level = any_degraded;
  out.fits_at_all_levels = !any_degraded;
  out.upper = best_ok / denom;
  out.lower = any_degraded ? first_degraded_avail / denom : 0.0;
  return out;
}

}  // namespace am::measure
