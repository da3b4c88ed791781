#include "measure/experiment_plan.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

/// Baselines (threads == 0) run no interference agents, so the nominal
/// resource is irrelevant; normalize it away for keying.
std::tuple<WorkloadId, int, std::uint32_t> key_of(WorkloadId workload,
                                                  Resource resource,
                                                  std::uint32_t threads) {
  const int r = threads == 0 ? 0 : static_cast<int>(resource) + 1;
  return {workload, r, threads};
}

std::string describe(const std::vector<std::string>& names,
                     WorkloadId workload, Resource resource,
                     std::uint32_t threads) {
  const std::string name = workload < names.size()
                               ? names[workload]
                               : "#" + std::to_string(workload);
  if (threads == 0) return name + " baseline";
  return name + " × " + resource_name(resource) + " × " +
         std::to_string(threads) + " threads";
}

}  // namespace

WorkloadId ExperimentPlan::add_workload(WorkloadSpec spec) {
  if (!spec.factory)
    throw std::invalid_argument("ExperimentPlan: workload without factory");
  // Rejected here — before hours of runs — rather than by the post-run
  // ResultStore::put, whose line-oriented format cannot hold these.
  if (spec.name.find_first_of("\t\n\r") != std::string::npos)
    throw std::invalid_argument(
        "ExperimentPlan: workload name contains tab/newline: '" + spec.name +
        "'");
  for (const auto& w : workloads_)
    if (w.name == spec.name)
      throw std::invalid_argument(
          "ExperimentPlan: duplicate workload name '" + spec.name +
          "' — names identify workload + parameters in result stores");
  workloads_.push_back(std::move(spec));
  return workloads_.size() - 1;
}

std::vector<std::size_t> ExperimentPlan::shard(std::size_t index,
                                               std::size_t count) const {
  if (count == 0 || index >= count)
    throw std::invalid_argument(
        "ExperimentPlan::shard: index " + std::to_string(index) +
        " out of range for " + std::to_string(count) + " shards");
  std::vector<std::size_t> out;
  for (std::size_t i = index; i < points_.size(); i += count) out.push_back(i);
  return out;
}

void ExperimentPlan::check_points(
    const std::vector<std::size_t>& indices) const {
  std::vector<bool> seen(points_.size(), false);
  for (const std::size_t i : indices) {
    if (i >= points_.size())
      throw std::invalid_argument(
          "ExperimentPlan: plan index " + std::to_string(i) +
          " out of range for a plan of " + std::to_string(points_.size()) +
          " points");
    if (seen[i])
      throw std::invalid_argument("ExperimentPlan: duplicate plan index " +
                                  std::to_string(i) + " in the work list");
    seen[i] = true;
  }
}

void ExperimentPlan::add_point(WorkloadId workload, Resource resource,
                               std::uint32_t threads) {
  if (workload >= workloads_.size())
    throw std::invalid_argument("ExperimentPlan: unknown workload id");
  const auto key = key_of(workload, resource, threads);
  if (!seen_.insert(key).second) return;
  points_.push_back({workload, resource, threads});
}

void ExperimentPlan::add_sweep(WorkloadId workload, Resource resource,
                               std::uint32_t lo, std::uint32_t hi) {
  for (std::uint32_t k = lo; k <= hi; ++k) add_point(workload, resource, k);
}

bool ResultTable::has(WorkloadId workload, Resource resource,
                      std::uint32_t threads) const {
  return rows_.contains(key_of(workload, resource, threads));
}

bool ResultTable::has_baseline(WorkloadId workload) const {
  return has(workload, Resource::kCacheStorage, 0);
}

const SimRunResult* ResultTable::get(WorkloadId workload, Resource resource,
                                     std::uint32_t threads) const {
  const auto it = rows_.find(key_of(workload, resource, threads));
  return it == rows_.end() ? nullptr : &it->second;
}

const SimRunResult& ResultTable::at(WorkloadId workload, Resource resource,
                                    std::uint32_t threads) const {
  const auto it = rows_.find(key_of(workload, resource, threads));
  if (it == rows_.end())
    throw std::out_of_range(
        "ResultTable: no result for " +
        describe(workload_names_, workload, resource, threads));
  return it->second;
}

const SimRunResult& ResultTable::baseline(WorkloadId workload) const {
  return at(workload, Resource::kCacheStorage, 0);
}

double ResultTable::slowdown(WorkloadId workload, Resource resource,
                             std::uint32_t threads) const {
  return at(workload, resource, threads).seconds /
         baseline(workload).seconds;
}

SweepRunner::SweepRunner(sim::MachineConfig machine, SweepRunnerOptions opts)
    : machine_(std::move(machine)), opts_(opts) {
  machine_.validate();
  machine_fp_ = machine_fingerprint(machine_);
}

InterferenceSpec SweepRunner::spec_for(const ExperimentPoint& pt) const {
  return pt.resource == Resource::kCacheStorage
             ? InterferenceSpec::storage(pt.threads, opts_.cs)
             : InterferenceSpec::bandwidth(pt.threads, opts_.bw);
}

ScenarioKey SweepRunner::key_for(const ExperimentPlan& plan,
                                 std::size_t plan_index) const {
  const ExperimentPoint& pt = plan.points().at(plan_index);
  return ScenarioKey::make(machine_fp_, plan.workloads()[pt.workload].name,
                           pt.resource, pt.threads,
                           spec_signature(spec_for(pt)),
                           seed_for(plan_index), opts_.max_cycles);
}

std::uint64_t SweepRunner::seed_for(std::size_t plan_index) const {
  if (!opts_.mix_seed_per_point) return opts_.seed;
  // Mixed from the plan index only, so an experiment's seed survives any
  // reordering of execution (and any pool size).
  std::uint64_t sm = opts_.seed ^ (0x9e3779b97f4a7c15ull * (plan_index + 1));
  return splitmix64(sm);
}

ResultTable SweepRunner::run(const ExperimentPlan& plan,
                             ThreadPool* pool) const {
  return run(plan, pool, /*store=*/nullptr, ShardRange{});
}

ResultTable SweepRunner::run(const ExperimentPlan& plan, ThreadPool* pool,
                             ResultStore* store, ShardRange shard,
                             std::size_t* executed) const {
  return run_points(plan, pool, store,
                    plan.shard(shard.index, shard.count), executed);
}

namespace {

/// Simulated accesses one interference agent issues per cycle, from the
/// shape of its step: a CSThr step loads and stores `batch_size` lines
/// that hit the L3, a BWThr step loads and stores `buffers_per_step`
/// lines that miss to DRAM behind its serial index computation.
double agent_accesses_per_cycle(const sim::MachineConfig& m,
                                const interfere::CSThrConfig& cs,
                                const interfere::BWThrConfig& bw,
                                Resource resource) {
  if (resource == Resource::kCacheStorage) {
    const double batch = cs.batch_size;
    return 2.0 * batch /
           std::max(1.0, static_cast<double>(m.l3_latency) + batch);
  }
  const double group = std::min(bw.buffers_per_step, bw.num_buffers);
  return 2.0 * group /
         std::max(1.0, static_cast<double>(m.mem_latency) +
                           group * bw.index_compute_cycles);
}

}  // namespace

std::vector<double> SweepRunner::estimate_costs(
    const ExperimentPlan& plan, const ResultStore* store) const {
  const auto& points = plan.points();
  const double w_cs = agent_accesses_per_cycle(machine_, opts_.cs, opts_.bw,
                                               Resource::kCacheStorage);
  const double w_bw = agent_accesses_per_cycle(machine_, opts_.cs, opts_.bw,
                                               Resource::kBandwidth);
  std::vector<double> modelled(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint& pt = points[i];
    const double agents =
        static_cast<double>(pt.threads) *
        plan.workloads()[pt.workload].interference_groups;
    modelled[i] =
        1.0 + agents * (pt.resource == Resource::kCacheStorage ? w_cs : w_bw);
  }

  std::vector<double> measured(points.size(), 0.0);
  double measured_sum = 0.0, modelled_sum = 0.0;
  if (store != nullptr)
    for (std::size_t i = 0; i < points.size(); ++i) {
      measured[i] = store->run_seconds(key_for(plan, i));
      if (measured[i] > 0.0) {
        measured_sum += measured[i];
        modelled_sum += modelled[i];
      }
    }

  // Mixed plans (some points measured, some not): bring the model onto
  // the measured points' scale so the two populations are comparable
  // within one ordering.
  const double scale = measured_sum > 0.0 && modelled_sum > 0.0
                           ? measured_sum / modelled_sum
                           : 1.0;
  std::vector<double> costs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    costs[i] = measured[i] > 0.0 ? measured[i] : modelled[i] * scale;
  return costs;
}

SweepRunner::PointRun SweepRunner::run_point(const ExperimentPlan& plan,
                                             std::size_t plan_index) const {
  const ExperimentPoint& pt = plan.points().at(plan_index);
  SimBackend backend(machine_, seed_for(plan_index));
  const auto t0 = std::chrono::steady_clock::now();
  PointRun run;
  run.result = backend.run(plan.workloads()[pt.workload].factory,
                           spec_for(pt), opts_.max_cycles);
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

void SweepRunner::record(const ExperimentPlan& plan, std::size_t plan_index,
                         const PointRun& run, const std::string& host,
                         ResultStore& store) const {
  store.put(key_for(plan, plan_index), run.result, host, run.wall_seconds);
  if (opts_.checkpoint) opts_.checkpoint(store);
}

ResultTable SweepRunner::run_points(const ExperimentPlan& plan,
                                    ThreadPool* pool, ResultStore* store,
                                    const std::vector<std::size_t>& owned,
                                    std::size_t* executed) const {
  plan.check_points(owned);
  const auto& points = plan.points();

  // Cache pass (serial, read-only): slot s of `results` holds the outcome
  // of plan point owned[s]; `todo` collects the slots that must run.
  std::vector<SimRunResult> results(owned.size());
  std::vector<std::size_t> todo;
  for (std::size_t s = 0; s < owned.size(); ++s) {
    if (store != nullptr)
      if (const SimRunResult* hit = store->find(key_for(plan, owned[s]))) {
        results[s] = *hit;
        continue;
      }
    todo.push_back(s);
  }

  // One host probe for the batch; every fresh record carries it.
  const std::string host = store != nullptr && !todo.empty()
                               ? interfere::HostIdentity::detect().fingerprint()
                               : std::string();
  // Guards the shared store across pool workers. A local capability,
  // so clang's -Wthread-safety cannot attach it to members — TSan (the
  // tsan preset runs the sweep suites) checks this one dynamically.
  Mutex store_mutex;
  auto run_one = [&](std::size_t t) {
    const std::size_t i = owned[todo[t]];
    const PointRun run = run_point(plan, i);
    results[todo[t]] = run.result;
    if (store != nullptr) {
      // Record (and optionally checkpoint) each point as it completes,
      // not after the barrier: a process killed mid-plan keeps every
      // checkpointed run (all finished ones, minus whatever a throttled
      // checkpointer skipped), so a supervised retry re-runs only
      // what's missing from the last save.
      // Completion order varies under a pool, but records are keyed and
      // the store file is canonically sorted — determinism is untouched.
      const MutexLock lock(store_mutex);
      record(plan, i, run, host, *store);
    }
  };

  if (pool != nullptr && todo.size() > 1) {
    // Longest first, so the heaviest points never start last. Each
    // point's error parks in its dispatch slot; the lowest *plan* index
    // among them is rethrown, whatever order they were dispatched in.
    const std::vector<double> costs = estimate_costs(plan, store);
    std::sort(todo.begin(), todo.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t ia = owned[a], ib = owned[b];
      return costs[ia] != costs[ib] ? costs[ia] > costs[ib] : ia < ib;
    });
    std::vector<std::exception_ptr> errors(todo.size());
    parallel_for(*pool, todo.size(), [&](std::size_t t) {
      try {
        run_one(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
    std::size_t first = todo.size();
    for (std::size_t t = 0; t < todo.size(); ++t)
      if (errors[t] && (first == todo.size() ||
                        owned[todo[t]] < owned[todo[first]]))
        first = t;
    if (first != todo.size()) std::rethrow_exception(errors[first]);
  } else {
    // Serially the order cannot change the wall clock: run in plan order,
    // so the first failure — which ends the run — is the lowest.
    std::sort(todo.begin(), todo.end(), [&](std::size_t a, std::size_t b) {
      return owned[a] < owned[b];
    });
    for (std::size_t t = 0; t < todo.size(); ++t) run_one(t);
  }

  if (executed != nullptr) *executed = todo.size();

  ResultTable table;
  for (const auto& w : plan.workloads())
    table.workload_names_.push_back(w.name);
  for (std::size_t s = 0; s < owned.size(); ++s) {
    const ExperimentPoint& pt = points[owned[s]];
    table.rows_.emplace(key_of(pt.workload, pt.resource, pt.threads),
                        results[s]);
  }
  return table;
}

}  // namespace am::measure
