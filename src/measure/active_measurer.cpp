#include "measure/active_measurer.hpp"

#include <stdexcept>

#include "measure/lease.hpp"

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

ExperimentPlan ActiveMeasurer::build_grid(
    const std::vector<GridRequest>& requests,
    std::vector<WorkloadId>& ids) const {
  ExperimentPlan plan;
  for (const auto& req : requests) {
    check_calibration(Resource::kCacheStorage, req.storage_threads);
    check_calibration(Resource::kBandwidth, req.bandwidth_threads);
    const auto id =
        plan.add_workload({req.name, req.factory, req.interference_groups});
    plan.add_sweep(id, Resource::kCacheStorage, 0, req.storage_threads);
    plan.add_sweep(id, Resource::kBandwidth, 0, req.bandwidth_threads);
    ids.push_back(id);
  }
  return plan;
}

SweepRunner ActiveMeasurer::grid_runner(
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) const {
  SweepRunnerOptions opts;
  opts.seed = backend_->seed();
  opts.mix_seed_per_point = false;  // sweeps stay comparable level-to-level
  opts.cs = cs;
  opts.bw = bw;
  opts.checkpoint = checkpoint_;
  return SweepRunner(backend_->machine(), opts);
}

std::vector<GridSweeps> ActiveMeasurer::sweep_grid(
    const std::vector<GridRequest>& requests,
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) {
  std::vector<WorkloadId> ids;
  const ExperimentPlan plan = build_grid(requests, ids);
  last_planned_ = plan.size();
  const ResultTable table = grid_runner(cs, bw).run(plan, pool_, store_,
                                                    ShardRange{},
                                                    &last_executed_);

  std::vector<GridSweeps> out;
  for (std::size_t i = 0; i < requests.size(); ++i)
    out.push_back({assemble(table, ids[i], Resource::kCacheStorage,
                            requests[i].storage_threads),
                   assemble(table, ids[i], Resource::kBandwidth,
                            requests[i].bandwidth_threads)});
  return out;
}

std::size_t ActiveMeasurer::sweep_grid_shard(
    const std::vector<GridRequest>& requests, ShardRange shard,
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) {
  if (store_ == nullptr)
    throw std::logic_error(
        "sweep_grid_shard: a result store must be set — a shard's only "
        "output is the records it persists");
  std::vector<WorkloadId> ids;
  const ExperimentPlan plan = build_grid(requests, ids);
  last_planned_ = plan.shard(shard.index, shard.count).size();
  grid_runner(cs, bw).run(plan, pool_, store_, shard, &last_executed_);
  return last_executed_;
}

std::size_t ActiveMeasurer::sweep_grid_lease(
    const std::vector<GridRequest>& requests, ResultStoreFile& store,
    const std::string& lease_path, std::ostream& out,
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) {
  if (store_ == nullptr || store.store() != store_)
    throw std::logic_error(
        "sweep_grid_lease: set_store must point at the lease-bound store "
        "file — leased results only exist as its records");
  std::vector<WorkloadId> ids;
  const ExperimentPlan plan = build_grid(requests, ids);
  const auto report = run_lease_worker(plan, grid_runner(cs, bw), pool_,
                                       store, lease_path, out);
  last_planned_ = report.points;
  last_executed_ = report.executed;
  return last_executed_;
}

void ActiveMeasurer::sweep_grid_emit_plan(
    const std::vector<GridRequest>& requests, const std::string& path,
    const interfere::CSThrConfig& cs, const interfere::BWThrConfig& bw) {
  std::vector<WorkloadId> ids;
  const ExperimentPlan plan = build_grid(requests, ids);
  emit_plan_info(plan, grid_runner(cs, bw), store_, path);
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
