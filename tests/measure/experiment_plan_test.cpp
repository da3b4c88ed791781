#include "measure/experiment_plan.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>

#include "common/mutex.hpp"
#include "common/work_lease.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/lease.hpp"
#include "model/distributions.hpp"
#include "seeded.hpp"

namespace am::measure {
namespace {

using model::AccessDistribution;
using sim::MachineConfig;

constexpr std::uint32_t kScale = 64;

MachineConfig machine() { return MachineConfig::xeon20mb_scaled(kScale); }

interfere::CSThrConfig cs_cfg() {
  interfere::CSThrConfig c;
  c.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  return c;
}

interfere::BWThrConfig bw_cfg() {
  interfere::BWThrConfig c;
  c.buffer_bytes = 520ull * 1024 / kScale;
  return c;
}

SimBackend::WorkloadFactory synth_factory(double l3_fraction = 1.2,
                                          std::uint64_t accesses = 6'000) {
  const auto elements = static_cast<std::uint64_t>(
      l3_fraction * static_cast<double>(machine().l3.size_bytes) / 4);
  // Short warm-up: these tests assert determinism and table plumbing, not
  // measurement realism, and the grid re-runs each plan several times.
  return make_synthetic_workload(apps::SyntheticConfig{
      AccessDistribution::uniform(elements, "Uni"), 4, 1, elements / 4,
      accesses});
}

SweepRunnerOptions options() {
  SweepRunnerOptions opts;
  opts.cs = cs_cfg();
  opts.bw = bw_cfg();
  return opts;
}

ExperimentPlan two_workload_plan() {
  ExperimentPlan plan;
  const auto a = plan.add_workload({"a", synth_factory(1.2)});
  const auto b = plan.add_workload({"b", synth_factory(0.5)});
  plan.add_sweep(a, Resource::kCacheStorage, 0, 2);
  plan.add_sweep(a, Resource::kBandwidth, 0, 1);
  plan.add_sweep(b, Resource::kCacheStorage, 0, 1);
  return plan;
}

void expect_identical(const ExperimentPlan& plan, const ResultTable& x,
                      const ResultTable& y) {
  ASSERT_EQ(x.size(), y.size());
  for (const auto& pt : plan.points()) {
    const auto& rx = x.at(pt.workload, pt.resource, pt.threads);
    const auto& ry = y.at(pt.workload, pt.resource, pt.threads);
    EXPECT_EQ(rx.seconds, ry.seconds);  // bitwise: same seed, same engine
    EXPECT_EQ(rx.cycles, ry.cycles);
    EXPECT_EQ(rx.app.loads, ry.app.loads);
    EXPECT_EQ(rx.app.bytes_from_mem, ry.app.bytes_from_mem);
  }
}

TEST(ExperimentPlan, DeduplicatesBaselinesAcrossResources) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_sweep(w, Resource::kCacheStorage, 0, 3);
  plan.add_sweep(w, Resource::kBandwidth, 0, 2);
  // 0..3 storage (4 points) + bandwidth 1..2 (k=0 folds into the shared
  // baseline) = 6 experiments, not 7.
  EXPECT_EQ(plan.size(), 6u);
  // Re-adding any existing point is a no-op.
  plan.add_point(w, Resource::kCacheStorage, 2);
  plan.add_point(w, Resource::kBandwidth, 0);
  EXPECT_EQ(plan.size(), 6u);
}

TEST(ExperimentPlan, RejectsUnknownWorkloadAndMissingFactory) {
  ExperimentPlan plan;
  EXPECT_THROW(plan.add_point(0, Resource::kCacheStorage, 0),
               std::invalid_argument);
  EXPECT_THROW(plan.add_workload({"broken", nullptr}),
               std::invalid_argument);
}

TEST(ExperimentPlan, RejectsDuplicateWorkloadNames) {
  // Names key the ResultStore; two workloads sharing one would alias.
  ExperimentPlan plan;
  plan.add_workload({"w", synth_factory()});
  EXPECT_THROW(plan.add_workload({"w", synth_factory(0.5)}),
               std::invalid_argument);
}

TEST(ExperimentPlan, ShardsCoverExactlyAndNeverOverlap) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_sweep(w, Resource::kCacheStorage, 0, 6);  // 7 points
  for (const std::size_t n : {1u, 2u, 3u, 7u, 11u}) {
    std::vector<int> owners(plan.size(), 0);
    for (std::size_t i = 0; i < n; ++i)
      for (const std::size_t idx : plan.shard(i, n)) {
        ASSERT_LT(idx, plan.size());
        ++owners[idx];
      }
    for (const int count : owners) EXPECT_EQ(count, 1);  // exact cover
  }
}

TEST(ExperimentPlan, ShardEdgeCases) {
  ExperimentPlan empty;
  EXPECT_TRUE(empty.shard(0, 4).empty());  // empty plan: empty shards

  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_point(w, Resource::kCacheStorage, 0);
  plan.add_point(w, Resource::kCacheStorage, 1);
  // More shards than points: the high shards are empty, not an error.
  EXPECT_EQ(plan.shard(0, 5), (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.shard(1, 5), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(plan.shard(4, 5).empty());
  // Invalid specs are errors.
  EXPECT_THROW(plan.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(plan.shard(2, 2), std::invalid_argument);
  EXPECT_THROW(plan.shard(7, 2), std::invalid_argument);
}

TEST(ExperimentPlan, BatchesCoverEveryPlanExactlyOnceForRandomCostModels) {
  // Property-style: whatever the plan size, batch count, and cost model,
  // the union of all batches is the plan, exactly once — the scheduler
  // contract that makes a leased sweep's merged store complete and
  // collision-free. Fixed seed: failures must reproduce.
  std::mt19937_64 rng(20260726);
  for (int round = 0; round < 50; ++round) {
    const std::size_t points = rng() % 40;  // includes the empty plan
    const std::size_t count = 1 + rng() % 12;
    std::vector<double> costs;
    if (rng() % 3 != 0) {  // every third round: uniform (no model)
      costs.resize(points);
      for (auto& c : costs)
        c = std::uniform_real_distribution<double>(0.0, 20.0)(rng);
    }
    const auto batches = make_batches(points, count, costs);
    ASSERT_EQ(batches.size(), count);
    std::vector<int> owners(points, 0);
    // Service order, by contract: concatenated, the batches list the
    // points costliest first, ties by plan index — within a batch and
    // from one batch to the next.
    const auto cost = [&](std::size_t p) {
      return costs.empty() ? 1.0 : costs[p];
    };
    std::vector<std::size_t> served;
    for (const auto& lease : batches) {
      for (const std::size_t p : lease.points) {
        ASSERT_LT(p, points);
        ++owners[p];
        served.push_back(p);
      }
    }
    for (std::size_t i = 1; i < served.size(); ++i) {
      const std::size_t a = served[i - 1], b = served[i];
      EXPECT_TRUE(cost(a) > cost(b) || (cost(a) == cost(b) && a < b))
          << "points " << a << " then " << b;
    }
    for (const int n : owners) EXPECT_EQ(n, 1);
  }
}

TEST(ExperimentPlan, ShardsStayRoundRobinAndUniformBatchesArePlanSlices) {
  // shard(i, n) is the manual multi-host recipe: hold it to the
  // historical round-robin oracle forever. Uniform-cost batches are the
  // plan cut into contiguous slices, sizes differing by at most one.
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_sweep(w, Resource::kCacheStorage, 0, 10);  // 11 points
  for (const std::size_t n : {1u, 2u, 3u, 5u, 11u, 13u}) {
    const auto batches = make_batches(plan.size(), n);
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::size_t> oracle;
      for (std::size_t p = i; p < plan.size(); p += n) oracle.push_back(p);
      EXPECT_EQ(plan.shard(i, n), oracle);

      const std::size_t size = plan.size() / n + (i < plan.size() % n);
      std::vector<std::size_t> slice(size);
      for (auto& p : slice) p = next++;
      EXPECT_EQ(batches[i].points, slice);
      EXPECT_EQ(batches[i].cost, static_cast<double>(size));
    }
  }
}

TEST(ExperimentPlan, BatchesAreCostOrderedSlices) {
  // Costliest points first, in slice 0; ties keep plan order; each slice
  // lists its points costliest first, so a worker's FIFO starts its
  // heaviest point first.
  const std::vector<double> costs{1.0, 100.0, 5.0, 5.0, 3.0, 50.0};
  const auto two = make_batches(6, 2, costs);
  EXPECT_EQ(two[0].points, (std::vector<std::size_t>{1, 5, 2}));
  EXPECT_EQ(two[1].points, (std::vector<std::size_t>{3, 4, 0}));
  EXPECT_EQ(two[0].cost, 155.0);
  EXPECT_EQ(two[1].cost, 9.0);
  // Four slices of six points: the leading two take the remainder.
  const auto four = make_batches(6, 4, costs);
  EXPECT_EQ(four[0].points, (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(four[1].points, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(four[2].points, (std::vector<std::size_t>{4}));
  EXPECT_EQ(four[3].points, (std::vector<std::size_t>{0}));
  for (std::size_t b = 0; b < four.size(); ++b) EXPECT_EQ(four[b].id, b);
}

TEST(ExperimentPlan, BatchesRejectBadCostModels) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_sweep(w, Resource::kCacheStorage, 0, 3);
  EXPECT_THROW(make_batches(plan.size(), 0), std::invalid_argument);
  EXPECT_THROW(make_batches(plan.size(), 2, {1.0}),
               std::invalid_argument);  // wrong len
  EXPECT_THROW(make_batches(plan.size(), 2, {1.0, -1.0, 1.0, 1.0}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(make_batches(plan.size(), 2, {1.0, nan, 1.0, 1.0}),
               std::invalid_argument);
}

TEST(SweepRunner, RunPointsRejectsBadWorkLists) {
  const auto plan = two_workload_plan();
  const SweepRunner runner(machine(), options());
  EXPECT_THROW(runner.run_points(plan, nullptr, nullptr, {plan.size()}),
               std::invalid_argument);
  EXPECT_THROW(runner.run_points(plan, nullptr, nullptr, {0, 0}),
               std::invalid_argument);
}

TEST(SweepRunner, EstimateCostsPrefersMeasuredTimesAndFallsBackToModel) {
  const auto plan = two_workload_plan();
  const SweepRunner runner(machine(), options());

  // No store: the model. A baseline costs the application's unit; each
  // agent adds its kind's accesses per cycle, a CSThr (L3 hits) several
  // times a BWThr (DRAM misses behind a serial index chain).
  const auto model = runner.estimate_costs(plan, nullptr);
  ASSERT_EQ(model.size(), plan.size());
  const auto& pts = plan.points();
  double w_cs = 0.0, w_bw = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (pts[i].threads == 0) {
      EXPECT_EQ(model[i], 1.0);
      continue;
    }
    const double w = (model[i] - 1.0) / pts[i].threads;
    double& seen = pts[i].resource == Resource::kCacheStorage ? w_cs : w_bw;
    if (seen == 0.0) seen = w;
    EXPECT_DOUBLE_EQ(w, seen);  // linear in threads, one weight per kind
  }
  EXPECT_GT(w_bw, 0.0);
  EXPECT_GT(w_cs / w_bw, 2.0);
  EXPECT_LT(w_cs / w_bw, 8.0);

  // Interference groups multiply the agents a point runs.
  ExperimentPlan grouped;
  const auto g = grouped.add_workload({"g", synth_factory(), 4});
  grouped.add_point(g, Resource::kCacheStorage, 2);
  EXPECT_DOUBLE_EQ(runner.estimate_costs(grouped, nullptr)[0],
                   1.0 + 2 * 4 * w_cs);

  // A store with one measured run: that point costs its wall-clock, the
  // rest keep the (rescaled) model — and the result is deterministic.
  ResultStore store;
  SimRunResult r;
  r.seconds = 0.5;
  store.put(runner.key_for(plan, 0), r, "host", /*run_seconds=*/7.5);
  const auto mixed = runner.estimate_costs(plan, &store);
  EXPECT_EQ(mixed[0], 7.5);
  // Point 0 is a baseline (model 1.0) measured at 7.5 s, so the
  // modelled population is rescaled by 7.5/1.0.
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_EQ(mixed[i], model[i] * 7.5);
  EXPECT_EQ(mixed, runner.estimate_costs(plan, &store));
}

/// Spearman rank correlation, ties taking their average rank.
double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < order.size();) {
      std::size_t j = i;
      while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
      for (std::size_t k = i; k <= j; ++k) r[order[k]] = (i + j) / 2.0;
      i = j + 1;
    }
    return r;
  };
  const auto rx = ranks(x), ry = ranks(y);
  const double n = static_cast<double>(x.size());
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += rx[i] / n;
    my += ry[i] / n;
  }
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (rx[i] - mx) * (ry[i] - my);
    vx += (rx[i] - mx) * (rx[i] - mx);
    vy += (ry[i] - my) * (ry[i] - my);
  }
  return cov / std::sqrt(vx * vy);
}

TEST(SweepRunner, EstimateCostsRanksTheMeasuredFig9Grid) {
  // The committed fixture holds measured host seconds of the fig9
  // --quick grid at scale 64 (scripts/point_seconds.py regenerates it).
  // Rebuild that plan — factories never run — and rank its points.
  std::ifstream in(std::string(AM_GOLDEN_DIR) +
                   "/fig9_quick_point_seconds.tsv");
  ASSERT_TRUE(in) << "missing fixture";
  const MachineConfig m = MachineConfig::xeon20mb_scaled(kScale, 12);
  const SimBackend::WorkloadFactory never = [](sim::Engine&) -> WorkloadInfo {
    throw std::logic_error("the ranking test runs no point");
  };
  ExperimentPlan with_groups, kind_only;
  std::map<std::string, WorkloadId> ids;
  std::vector<double> seconds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, resource, threads, secs;
    std::getline(fields, name, '\t');
    std::getline(fields, resource, '\t');
    std::getline(fields, threads, '\t');
    std::getline(fields, secs, '\t');
    if (!ids.contains(name)) {
      const auto p = static_cast<std::uint32_t>(
          std::stoul(name.substr(name.find("p=") + 2)));
      ids[name] = with_groups.add_workload(
          {name, never, mpi_interference_groups(m, 4, p)});
      kind_only.add_workload({name, never});
    }
    const Resource r = resource == "bandwidth" ? Resource::kBandwidth
                                               : Resource::kCacheStorage;
    const auto k = static_cast<std::uint32_t>(std::stoul(threads));
    with_groups.add_point(ids[name], r, k);
    kind_only.add_point(ids[name], r, k);
    seconds.push_back(std::stod(secs));
  }
  ASSERT_EQ(with_groups.size(), 23u);
  ASSERT_EQ(seconds.size(), 23u);

  SweepRunnerOptions opts;
  opts.cs = cs_cfg();
  opts.bw = bw_cfg();
  const SweepRunner runner(m, opts);
  std::vector<double> threads_only;
  for (const auto& pt : with_groups.points())
    threads_only.push_back(1.0 + pt.threads);

  const double old_rho = spearman(threads_only, seconds);
  const double rho = spearman(runner.estimate_costs(with_groups, nullptr),
                              seconds);
  const double kind_rho =
      spearman(runner.estimate_costs(kind_only, nullptr), seconds);
  EXPECT_GE(rho, 0.9);
  EXPECT_GT(rho, old_rho);
  // Without the group hint (a WorkloadSpec that leaves it at 1, as the
  // benchmark's plan does) the kind weights alone still beat 1 + threads.
  EXPECT_GT(kind_rho, old_rho);
  std::cout << "spearman: model " << rho << ", kind only " << kind_rho
            << ", 1 + threads " << old_rho << "\n";
}

TEST(SweepRunner, RunPointsRethrowsTheLowestPlanIndexFailure) {
  // A cheap point at plan index 0 and a costly one at index 1 both throw.
  // Over a pool the costly one is dispatched first (a one-thread pool
  // runs them in dispatch order), yet the error that surfaces is plan
  // index 0's, whatever the pool size.
  Mutex mutex;
  std::vector<std::string> started;
  const auto failing = [&](std::string name) {
    return [&, name](sim::Engine&) -> WorkloadInfo {
      {
        const MutexLock lock(mutex);
        started.push_back(name);
      }
      throw std::runtime_error(name + " point failed");
    };
  };
  ExperimentPlan plan;
  const auto cheap = plan.add_workload({"cheap", failing("cheap")});
  const auto costly = plan.add_workload({"costly", failing("costly")});
  plan.add_point(cheap, Resource::kCacheStorage, 0);
  plan.add_point(costly, Resource::kCacheStorage, 5);
  const SweepRunner runner(machine(), options());
  const auto costs = runner.estimate_costs(plan, nullptr);
  ASSERT_GT(costs[1], costs[0]);

  const auto message = [&](ThreadPool* pool) {
    started.clear();
    try {
      runner.run_points(plan, pool, nullptr, {0, 1});
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message(nullptr), "cheap point failed");
  EXPECT_EQ(started, (std::vector<std::string>{"cheap"}));  // plan order
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(message(&pool), "cheap point failed") << threads << " threads";
    EXPECT_EQ(started.size(), 2u);  // every run settles first
    if (threads == 1) {
      EXPECT_EQ(started, (std::vector<std::string>{"costly", "cheap"}));
    }
  }
}

TEST(ResultTable, HasAndGetErrorPaths) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_point(w, Resource::kCacheStorage, 0);
  plan.add_point(w, Resource::kCacheStorage, 1);
  const SweepRunner runner(machine(), options());
  const auto table = runner.run(plan);

  EXPECT_TRUE(table.has(w, Resource::kCacheStorage, 1));
  // A baseline satisfies has() for either nominal resource.
  EXPECT_TRUE(table.has(w, Resource::kBandwidth, 0));
  EXPECT_FALSE(table.has(w, Resource::kBandwidth, 1));
  EXPECT_FALSE(table.has(w + 1, Resource::kCacheStorage, 0));

  ASSERT_NE(table.get(w, Resource::kCacheStorage, 1), nullptr);
  EXPECT_EQ(table.get(w, Resource::kCacheStorage, 1),
            &table.at(w, Resource::kCacheStorage, 1));
  // get() is the non-throwing sibling of at(): same keys, nullptr instead
  // of std::out_of_range.
  EXPECT_EQ(table.get(w, Resource::kBandwidth, 1), nullptr);
  EXPECT_EQ(table.get(w + 1, Resource::kCacheStorage, 0), nullptr);
  EXPECT_THROW(table.at(w, Resource::kBandwidth, 1), std::out_of_range);
  EXPECT_THROW(table.at(w + 1, Resource::kCacheStorage, 0),
               std::out_of_range);
}

TEST(SweepRunner, SeedsDependOnPlanIndexOnly) {
  const SweepRunner runner(machine(), options());
  EXPECT_NE(runner.seed_for(0), runner.seed_for(1));
  EXPECT_EQ(runner.seed_for(3), runner.seed_for(3));
  SweepRunnerOptions fixed = options();
  fixed.mix_seed_per_point = false;
  fixed.seed = 42;
  const SweepRunner constant(machine(), fixed);
  EXPECT_EQ(constant.seed_for(0), 42u);
  EXPECT_EQ(constant.seed_for(7), 42u);
}

std::string saved_bytes(const ResultStore& store, const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() /
                    (name + "_" + std::to_string(::getpid()) + ".tsv");
  store.save(path.string());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".times");
  return bytes.str();
}

// Besides pools of 1 and 4, each run draws a pool size of 1 to 8 and a
// subset of points already in the store from its seed (tests/seeded.hpp);
// the store it saves must hold the bytes a serial run's does.
TEST(SweepRunner, TableIsInvariantUnderThreadCount) {
  const auto plan = two_workload_plan();
  const SweepRunner runner(machine(), options());
  std::vector<std::size_t> all(plan.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  ResultStore serial_store;
  const auto serial = runner.run_points(plan, nullptr, &serial_store, all);
  ThreadPool one(1);
  const auto pooled_one = runner.run(plan, &one);
  ThreadPool four(4);
  const auto pooled_four = runner.run(plan, &four);
  expect_identical(plan, serial, pooled_one);
  expect_identical(plan, serial, pooled_four);

  std::mt19937_64 rng(test::repetition_seed());
  const std::size_t threads = 1 + rng() % 8;
  ResultStore store;
  for (const ResultRecord* r : serial_store.records())
    if (rng() % 2 == 0) store.put(r->key, r->result, r->host, r->run_seconds);
  const std::size_t cached = store.size();
  SCOPED_TRACE(testing::Message() << threads << " threads, " << cached
                                  << " points cached");
  ThreadPool drawn(threads);
  std::size_t executed = 0;
  expect_identical(plan, serial,
                   runner.run_points(plan, &drawn, &store, all, &executed));
  EXPECT_EQ(executed, plan.size() - cached);
  EXPECT_EQ(saved_bytes(store, "am_drawn_pool"),
            saved_bytes(serial_store, "am_serial"));
}

TEST(SweepRunner, BaselineIsSharedAcrossResources) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_sweep(w, Resource::kCacheStorage, 0, 1);
  plan.add_sweep(w, Resource::kBandwidth, 0, 1);
  const SweepRunner runner(machine(), options());
  const auto table = runner.run(plan);
  EXPECT_EQ(&table.at(w, Resource::kCacheStorage, 0),
            &table.at(w, Resource::kBandwidth, 0));
  EXPECT_DOUBLE_EQ(table.slowdown(w, Resource::kBandwidth, 0), 1.0);
}

TEST(SweepRunner, MissingBaselineIsAHardError) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"trimmed", synth_factory()});
  plan.add_point(w, Resource::kCacheStorage, 1);
  const SweepRunner runner(machine(), options());
  const auto table = runner.run(plan);
  EXPECT_FALSE(table.has_baseline(w));
  EXPECT_THROW(table.baseline(w), std::out_of_range);
  EXPECT_THROW(table.slowdown(w, Resource::kCacheStorage, 1),
               std::out_of_range);
  EXPECT_THROW(table.at(w, Resource::kBandwidth, 2), std::out_of_range);
  EXPECT_NO_THROW(table.at(w, Resource::kCacheStorage, 1));
}

TEST(SweepRunner, PropagatesTimeoutBudget) {
  ExperimentPlan plan;
  const auto w = plan.add_workload({"w", synth_factory()});
  plan.add_point(w, Resource::kCacheStorage, 0);
  SweepRunnerOptions opts = options();
  opts.max_cycles = 1000;  // far below what the workload needs
  const SweepRunner runner(machine(), opts);
  const auto table = runner.run(plan);
  EXPECT_TRUE(table.baseline(w).timed_out);
}

TEST(SweepRunner, WorkloadExceptionsSurfaceAfterTheBarrier) {
  ExperimentPlan plan;
  const auto w = plan.add_workload(
      {"broken", [](sim::Engine&) -> WorkloadInfo {
         throw std::runtime_error("factory exploded");
       }});
  plan.add_point(w, Resource::kCacheStorage, 0);
  const SweepRunner runner(machine(), options());
  EXPECT_THROW(runner.run(plan), std::runtime_error);
  ThreadPool pool(2);
  EXPECT_THROW(runner.run(plan, &pool), std::runtime_error);
}

/// The calibrations only translate thread counts into availability labels;
/// synthetic tables keep the test fast.
CapacityCalibration fake_capacity() {
  CapacityCalibration c;
  const double mb = machine().l3.size_bytes / 20.0;
  c.available_bytes = {20 * mb, 15 * mb, 12 * mb, 7 * mb, 5 * mb, 2.5 * mb};
  c.stddev_bytes.assign(6, 0.0);
  return c;
}

BandwidthCalibration fake_bandwidth() {
  BandwidthCalibration b;
  b.peak_bytes_per_sec = 17e9;
  b.used_bytes_per_sec = {0.0, 2.8e9, 5.6e9};
  return b;
}

TEST(SweepEquivalence, MeasurerSweepMatchesLegacySerialPath) {
  // The pre-refactor ActiveMeasurer::sweep: one backend, one seed, a
  // strictly serial k = 0..max loop. The runner-backed sweep (here with a
  // pool of 4) must be bit-identical.
  const auto factory = synth_factory(1.2, 10'000);
  const auto cap = fake_capacity();
  const auto bw_calib = fake_bandwidth();

  SimBackend legacy_backend(machine(), /*seed=*/5);
  std::vector<SweepPoint> legacy;
  for (std::uint32_t k = 0; k <= 3; ++k) {
    const auto run = legacy_backend.run(
        factory, InterferenceSpec::storage(k, cs_cfg()));
    legacy.push_back({k, run.seconds, cap.available_bytes.at(k)});
  }

  SimBackend backend(machine(), /*seed=*/5);
  ActiveMeasurer measurer(backend, cap, bw_calib);
  ThreadPool pool(4);
  measurer.set_pool(&pool);
  const auto sweep =
      measurer.sweep(factory, Resource::kCacheStorage, 3, cs_cfg(), bw_cfg());

  ASSERT_EQ(sweep.points.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(sweep.points[i].threads, legacy[i].threads);
    EXPECT_EQ(sweep.points[i].seconds, legacy[i].seconds);  // bitwise
    EXPECT_EQ(sweep.points[i].resource_available,
              legacy[i].resource_available);
  }
}

TEST(SweepGrid, SharesBaselineAndMatchesIndividualSweeps) {
  const auto factory = synth_factory(1.2, 10'000);
  SimBackend backend(machine(), /*seed=*/9);
  ActiveMeasurer measurer(backend, fake_capacity(), fake_bandwidth());
  const auto grids = measurer.sweep_grid(
      {{factory, "app", /*storage_threads=*/2, /*bandwidth_threads=*/1}},
      cs_cfg(), bw_cfg());
  ASSERT_EQ(grids.size(), 1u);
  const auto& g = grids[0];
  ASSERT_EQ(g.storage.points.size(), 3u);
  ASSERT_EQ(g.bandwidth.points.size(), 2u);
  // The two sweeps share the zero-interference run.
  EXPECT_EQ(g.storage.points[0].seconds, g.bandwidth.points[0].seconds);

  // And each sweep equals what a standalone sweep produces.
  SimBackend backend2(machine(), /*seed=*/9);
  ActiveMeasurer single(backend2, fake_capacity(), fake_bandwidth());
  const auto cap_sweep =
      single.sweep(factory, Resource::kCacheStorage, 2, cs_cfg(), bw_cfg());
  for (std::size_t i = 0; i < cap_sweep.points.size(); ++i)
    EXPECT_EQ(g.storage.points[i].seconds, cap_sweep.points[i].seconds);

  // The split path the grid drivers take — plan_grid, execute_plan (here
  // a full run over a pool), assemble_grid — equals sweep_grid bit for
  // bit.
  const std::vector<GridRequest> requests{{factory, "app", 2, 1}};
  const auto grid = plan_grid(backend, requests, cs_cfg(), bw_cfg());
  ResultStoreFile no_store("", "grid");
  ThreadPool pool(2);
  std::ostringstream out;
  const auto table = execute_plan(SchedulingFlags{}, grid.plan, grid.runner,
                                  no_store, &pool, out);
  ASSERT_TRUE(table.has_value());
  const auto split = measurer.assemble_grid(grid, requests, *table);
  ASSERT_EQ(split.size(), 1u);
  for (const auto& [a, b] :
       {std::pair{&split[0].storage, &g.storage},
        std::pair{&split[0].bandwidth, &g.bandwidth}}) {
    EXPECT_EQ(a->resource, b->resource);
    ASSERT_EQ(a->points.size(), b->points.size());
    for (std::size_t i = 0; i < a->points.size(); ++i) {
      EXPECT_EQ(a->points[i].threads, b->points[i].threads);
      EXPECT_EQ(a->points[i].seconds, b->points[i].seconds);  // bitwise
      EXPECT_EQ(a->points[i].resource_available,
                b->points[i].resource_available);
    }
  }
}

}  // namespace
}  // namespace am::measure
