#pragma once
// Declarative experiment grids for the Active Measurement methodology.
//
// The paper's evaluation is one grid after another: (workload × resource ×
// interference-thread-count × mapping × app size) sweeps feeding Figs. 5-12.
// Instead of every driver hand-rolling its run list, thread-pool plumbing
// and baseline lookup, an ExperimentPlan names the scenarios once and a
// SweepRunner executes them — serially or over an am::ThreadPool — into a
// ResultTable keyed by scenario. Guarantees:
//
//   * Determinism: each experiment's engine seed is mixed from its position
//     in the plan (never from submission or completion order), so the table
//     is bit-identical for any pool size, including no pool at all.
//   * Baseline dedup: a zero-thread point is the same experiment no matter
//     which resource it nominally sweeps (no interference agents run), so
//     each workload owns exactly one baseline run shared by every slowdown
//     column.
//   * Timeout propagation: the per-run cycle budget reaches every engine,
//     and truncated runs surface as SimRunResult::timed_out.
//   * Caching & sharding: a run can consult a ResultStore (hit → reuse,
//     miss → run and record) and can execute only one shard of the plan
//     (ExperimentPlan::shard), so a grid splits across processes/machines
//     and re-running an unchanged grid costs zero engine runs. Cached and
//     recomputed tables are bit-identical.
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/shard.hpp"
#include "common/thread_pool.hpp"
#include "measure/result_store.hpp"
#include "measure/sim_backend.hpp"

namespace am::measure {

using WorkloadId = std::size_t;

/// One workload axis entry: a factory plus the name error messages and
/// result listings identify the scenario by.
struct WorkloadSpec {
  std::string name;
  SimBackend::WorkloadFactory factory;
};

/// One executable grid point of a plan.
struct ExperimentPoint {
  WorkloadId workload = 0;
  Resource resource = Resource::kCacheStorage;
  std::uint32_t threads = 0;  // interference threads per socket
};

class ExperimentPlan {
 public:
  /// Registers a workload. Names must be unique within a plan: the name is
  /// the workload's identity in ResultStore keys (parameters belong in the
  /// name, e.g. "particles=90000"), so a duplicate would alias two
  /// different experiments. Throws std::invalid_argument on a duplicate
  /// name or a null factory.
  WorkloadId add_workload(WorkloadSpec spec);

  /// Adds one grid point. Duplicates are dropped; threads == 0 points are
  /// normalized to a single per-workload baseline regardless of resource.
  void add_point(WorkloadId workload, Resource resource,
                 std::uint32_t threads);

  /// Adds points for threads in [lo, hi] (inclusive).
  void add_sweep(WorkloadId workload, Resource resource, std::uint32_t lo,
                 std::uint32_t hi);

  const std::vector<WorkloadSpec>& workloads() const { return workloads_; }
  /// Unique points in canonical (insertion) order; the index of a point in
  /// this vector is its plan index, which seeds its engine.
  const std::vector<ExperimentPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

  /// Plan indices owned by shard `index` of `count`: the round-robin slice
  /// {i : i ≡ index (mod count)}, in ascending order. For any count the
  /// shards are disjoint and cover the plan exactly; a shard keeps its
  /// points' original plan indices, so per-point seeds — and therefore
  /// results — are identical to an unsharded run. count > size() simply
  /// leaves the high shards empty. Throws std::invalid_argument when
  /// count == 0 or index >= count. Implemented as batches(count) with a
  /// uniform cost model, whose greedy assignment degenerates to exactly
  /// this round-robin slicing — the compatibility front-end of the
  /// dynamic scheduler.
  std::vector<std::size_t> shard(std::size_t index, std::size_t count) const;

  /// Splits the plan into `count` size-aware batches for dynamic
  /// scheduling (measure::SweepOrchestrator leases them to workers).
  /// `costs`, when non-empty, gives each plan index a relative cost
  /// (size() entries, finite and >= 0 — see SweepRunner::estimate_costs);
  /// empty means uniform. Assignment is greedy LPT: points in descending
  /// cost order (ties by plan index) each join the currently cheapest
  /// batch (ties by batch index), which with uniform costs reproduces the
  /// round-robin shard slices bit-exactly. Guarantees, for any cost
  /// model: the batches are disjoint, cover the plan exactly once, and
  /// keep original plan indices (ascending within a batch) — so per-point
  /// seeds, store keys, and therefore results are identical to an
  /// unsharded run no matter how the batches are scheduled. Batch ids are
  /// the batch indices; a scheduler re-issues them under fresh lease ids.
  /// Throws std::invalid_argument when count == 0 or `costs` is the
  /// wrong length or holds a negative/non-finite entry. count > size()
  /// leaves the high batches empty.
  std::vector<WorkLease> batches(std::size_t count,
                                 const std::vector<double>& costs = {}) const;

  /// Throws std::invalid_argument unless `indices` are distinct plan
  /// indices below size() — the check every work list (a shard slice, a
  /// leased batch) passes before any of it runs.
  void check_points(const std::vector<std::size_t>& indices) const;

 private:
  std::vector<WorkloadSpec> workloads_;
  std::vector<ExperimentPoint> points_;
  std::set<std::tuple<WorkloadId, int, std::uint32_t>> seen_;
};

/// Results of an executed plan, keyed by scenario.
class ResultTable {
 public:
  bool has(WorkloadId workload, Resource resource,
           std::uint32_t threads) const;
  bool has_baseline(WorkloadId workload) const;

  /// The result for one grid point; throws std::out_of_range naming the
  /// scenario if the plan never ran it.
  const SimRunResult& at(WorkloadId workload, Resource resource,
                         std::uint32_t threads) const;

  /// Non-throwing lookup: the result, or nullptr when the scenario never
  /// ran (e.g. a point owned by another shard).
  const SimRunResult* get(WorkloadId workload, Resource resource,
                          std::uint32_t threads) const;

  /// The shared zero-interference run. A missing baseline is a hard error
  /// (std::out_of_range), never a silent zero: dividing by a default 0.0
  /// is how slowdown columns end up printing `inf`.
  const SimRunResult& baseline(WorkloadId workload) const;

  /// at(...).seconds / baseline(...).seconds.
  double slowdown(WorkloadId workload, Resource resource,
                  std::uint32_t threads) const;

  std::size_t size() const { return rows_.size(); }

 private:
  friend class SweepRunner;
  std::vector<std::string> workload_names_;
  std::map<std::tuple<WorkloadId, int, std::uint32_t>, SimRunResult> rows_;
};

struct SweepRunnerOptions {
  /// Per-run simulated-cycle budget, forwarded to every SimBackend::run;
  /// truncated runs come back with SimRunResult::timed_out set.
  sim::Cycles max_cycles = UINT64_MAX / 4;
  std::uint64_t seed = 1;
  /// Mix each engine seed from the experiment's plan index. Disable to run
  /// every point with `seed` verbatim — bit-compatible with the legacy
  /// serial sweep, which reused one backend (and one seed) for all levels.
  bool mix_seed_per_point = true;
  interfere::CSThrConfig cs;
  interfere::BWThrConfig bw;
  /// Chunk size for the pool's parallel_for; simulator runs are coarse, so
  /// per-point submission (grain 1) is the right default.
  std::size_t grain = 1;
  /// Invoked after each freshly executed point is recorded into the store
  /// (cache-aware run only; serialized — never concurrently). Persisting
  /// the store here (ResultStoreFile::checkpointer) bounds what a killed
  /// process loses to the runs still in flight, which is what makes a
  /// supervisor's retries cheap. Null = results reach disk only via the
  /// caller's final save.
  std::function<void(const ResultStore&)> checkpoint;
};

class SweepRunner {
 public:
  /// One simulated plan point.
  struct PointRun {
    SimRunResult result;
    /// Host wall-clock of the engine run, not simulated seconds: the
    /// scheduler's cost model needs the former. Never part of the
    /// result — ResultStore keeps it as a batching hint only.
    double wall_seconds = 0.0;
  };

  explicit SweepRunner(sim::MachineConfig machine,
                       SweepRunnerOptions opts = {});

  /// Executes every point of the plan, serially (pool == nullptr) or over
  /// the pool. The table is identical either way. A throwing experiment's
  /// exception propagates: serially it ends the run, over the pool every
  /// other run settles first and the first failure in plan order wins.
  ResultTable run(const ExperimentPlan& plan, ThreadPool* pool = nullptr) const;

  /// Cache-aware, shardable run. Only the points of `shard` enter the
  /// table; for each, a `store` hit is reused verbatim (bit-identical to a
  /// fresh run) and a miss is executed and recorded into the store. The
  /// caller persists the store (ResultStore::save) when it wants the cache
  /// durable. `executed`, when non-null, receives the number of engine
  /// runs actually performed — zero on a fully cached re-run.
  ResultTable run(const ExperimentPlan& plan, ThreadPool* pool,
                  ResultStore* store, ShardRange shard,
                  std::size_t* executed = nullptr) const;

  /// The general form every run() overload reduces to: run exactly the
  /// plan indices in `owned` (any subset — a static shard slice or a
  /// leased batch). Each fresh run is recorded into `store` together with
  /// its wall-clock (ResultStore run times feed estimate_costs). Throws
  /// std::invalid_argument on an out-of-range or duplicate index.
  ResultTable run_points(const ExperimentPlan& plan, ThreadPool* pool,
                         ResultStore* store,
                         const std::vector<std::size_t>& owned,
                         std::size_t* executed = nullptr) const;

  /// Simulates plan point `plan_index` under its per-index seed. Touches
  /// no store, so any number may run concurrently (run_points and the
  /// lease worker run them on pool threads). Throws std::out_of_range on
  /// an index outside the plan.
  PointRun run_point(const ExperimentPlan& plan, std::size_t plan_index) const;

  /// Records a fresh run of `plan_index` into `store` under key_for,
  /// tagged with the producing host's fingerprint and the run's
  /// wall-clock, then calls options().checkpoint. Callers serialize
  /// access to `store`; the checkpoint hook never runs concurrently.
  void record(const ExperimentPlan& plan, std::size_t plan_index,
              const PointRun& run, const std::string& host,
              ResultStore& store) const;

  /// Per-point relative costs for ExperimentPlan::batches. A point whose
  /// key has a recorded wall-clock in `store` (a previous sweep ran it)
  /// costs its measured seconds; the rest fall back to a 1 + threads
  /// heuristic (more interference agents = more simulated work per
  /// cycle), rescaled onto the measured points' scale when any exist.
  /// The per-run cycle budget (options().max_cycles) is uniform across a
  /// plan, so it divides out of these relative costs. Deterministic:
  /// depends only on the plan, this runner's keys, and the store.
  std::vector<double> estimate_costs(const ExperimentPlan& plan,
                                     const ResultStore* store) const;

  /// The ResultStore key of one plan point — covers the simulated-machine
  /// fingerprint, the workload's name, the (normalized) scenario, this
  /// runner's per-index seed, and the cycle budget.
  ScenarioKey key_for(const ExperimentPlan& plan,
                      std::size_t plan_index) const;

  /// The engine seed a given plan index runs with.
  std::uint64_t seed_for(std::size_t plan_index) const;

  const sim::MachineConfig& machine() const { return machine_; }
  const SweepRunnerOptions& options() const { return opts_; }

 private:
  InterferenceSpec spec_for(const ExperimentPoint& pt) const;

  sim::MachineConfig machine_;
  SweepRunnerOptions opts_;
  std::string machine_fp_;  // machine_fingerprint(machine_), cached
};

}  // namespace am::measure
