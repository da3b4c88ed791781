#include "measure/result_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"
#include "measure/app_workloads.hpp"
#include "measure/experiment_plan.hpp"
#include "model/distributions.hpp"
#include "wire_goldens.hpp"

namespace am::measure {
namespace {

using model::AccessDistribution;
using sim::MachineConfig;

constexpr std::uint32_t kScale = 64;

MachineConfig machine() { return MachineConfig::xeon20mb_scaled(kScale); }

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("am_result_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

ScenarioKey key(std::string workload = "w", std::uint32_t threads = 2,
                Resource resource = Resource::kCacheStorage) {
  return ScenarioKey::make("m-fingerprint", std::move(workload), resource,
                           threads, "cs:b4096:n4:w1000000", 7, 1'000'000);
}

SimRunResult result(double seconds = 0.125) {
  SimRunResult r;
  r.seconds = seconds;
  r.cycles = 123456;
  r.app.loads = 1000;
  r.app.bytes_from_mem = 64 * 77;
  r.app_l3_miss_rate = 1.0 / 3.0;  // not exactly representable: the
                                   // round-trip must still be bit-exact
  r.app_mem_bandwidth = 2.8e9;
  r.total_mem_bandwidth = 5.6e9;
  r.interference_threads = 2;
  return r;
}

TEST_F(ResultStoreTest, KeyNormalizesBaselines) {
  const auto storage = ScenarioKey::make("m", "w", Resource::kCacheStorage, 0,
                                         "cs:whatever", 1, 100);
  const auto bandwidth = ScenarioKey::make("m", "w", Resource::kBandwidth, 0,
                                           "bw:other", 1, 100);
  EXPECT_EQ(storage, bandwidth);
  EXPECT_EQ(storage.spec, "none");
  EXPECT_EQ(storage.fingerprint(), bandwidth.fingerprint());
  const auto interfered =
      ScenarioKey::make("m", "w", Resource::kBandwidth, 1, "bw:other", 1, 100);
  EXPECT_NE(interfered.fingerprint(), storage.fingerprint());
}

TEST_F(ResultStoreTest, FingerprintCoversEveryField) {
  const auto base = key();
  auto k = key();
  k.machine = "other";
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.workload = "other";
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.resource = Resource::kBandwidth;
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.threads += 1;
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.spec = "cs:b8192:n4:w1000000";
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.seed += 1;
  EXPECT_NE(k.fingerprint(), base.fingerprint());
  k = key();
  k.max_cycles += 1;
  EXPECT_NE(k.fingerprint(), base.fingerprint());
}

TEST_F(ResultStoreTest, RoundTripIsBitExact) {
  ResultStore store;
  store.put(key("w", 2), result(0.1 + 0.2), "deadbeefdeadbeef");
  store.put(key("w", 0), result(1.0 / 7.0), "deadbeefdeadbeef");
  store.save(path("s.tsv"));

  const auto loaded = ResultStore::load(path("s.tsv"));
  ASSERT_EQ(loaded.size(), 2u);
  const auto* r = loaded.find(key("w", 2));
  ASSERT_NE(r, nullptr);
  const auto orig = result(0.1 + 0.2);
  EXPECT_EQ(r->seconds, orig.seconds);  // bitwise, via hexfloat
  EXPECT_EQ(r->cycles, orig.cycles);
  EXPECT_EQ(r->app.loads, orig.app.loads);
  EXPECT_EQ(r->app.bytes_from_mem, orig.app.bytes_from_mem);
  EXPECT_EQ(r->app_l3_miss_rate, orig.app_l3_miss_rate);
  EXPECT_EQ(r->interference_threads, orig.interference_threads);
  EXPECT_FALSE(r->timed_out);
}

TEST_F(ResultStoreTest, SaveWritesPinnedBytes) {
  // Two records, one of each resource and one timed out, each with a run
  // time for the `.times` sidecar. Both files are compared byte for byte.
  ResultStore store;
  store.put(key("w", 2, Resource::kBandwidth), result(0.1 + 0.2),
            "deadbeefdeadbeef", 0.5);
  SimRunResult timed_out = result(1.0 / 7.0);
  timed_out.timed_out = true;
  store.put(key("w", 0), timed_out, "deadbeefdeadbeef", 1.0 / 3.0);
  store.save(path("s.tsv"));
  EXPECT_EQ(golden::read_bytes(path("s.tsv")), golden::kStore);
  EXPECT_EQ(golden::read_bytes(path("s.tsv.times")), golden::kStoreTimes);
}

TEST_F(ResultStoreTest, FindDistinguishesKeys) {
  ResultStore store;
  store.put(key("w", 2), result());
  EXPECT_TRUE(store.has(key("w", 2)));
  EXPECT_FALSE(store.has(key("w", 3)));
  EXPECT_FALSE(store.has(key("other", 2)));
  EXPECT_EQ(store.find(key("w", 3)), nullptr);
}

TEST_F(ResultStoreTest, RejectsUnstorableKeyFields) {
  ResultStore store;
  EXPECT_THROW(store.put(key("bad\tname"), result()), std::invalid_argument);
  EXPECT_THROW(store.put(key("bad\nname"), result()), std::invalid_argument);
}

TEST_F(ResultStoreTest, LoadRejectsMissingFileButLoadOrEmptyTolerates) {
  EXPECT_THROW(ResultStore::load(path("absent.tsv")), std::runtime_error);
  EXPECT_TRUE(ResultStore::load_or_empty(path("absent.tsv")).empty());
}

TEST_F(ResultStoreTest, LoadRejectsVersionMismatch) {
  {
    std::ofstream out(path("v9.tsv"));
    out << "#am-result-store v9\n";
  }
  try {
    ResultStore::load(path("v9.tsv"));
    FAIL() << "expected version mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos);
  }
  {
    std::ofstream out(path("garbage.tsv"));
    out << "hello world\n";
  }
  EXPECT_THROW(ResultStore::load(path("garbage.tsv")), std::runtime_error);
}

TEST_F(ResultStoreTest, LoadRejectsEditedRecords) {
  ResultStore store;
  store.put(key(), result());
  store.save(path("s.tsv"));
  // Flip the thread count without updating the fingerprint: the content
  // address no longer matches the fields.
  std::ifstream in(path("s.tsv"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto pos = content.find("\t2\t");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 3, "\t3\t");
  std::ofstream(path("edited.tsv")) << content;
  try {
    ResultStore::load(path("edited.tsv"));
    FAIL() << "expected fingerprint mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos);
  }
}

TEST_F(ResultStoreTest, LoadRejectsForeignHostWhenExpected) {
  ResultStore store;
  store.put(key(), result(), "aaaaaaaaaaaaaaaa");
  store.save(path("s.tsv"));

  StoreLoadOptions opts;
  opts.expect_host = "bbbbbbbbbbbbbbbb";
  try {
    ResultStore::load(path("s.tsv"), opts);
    FAIL() << "expected host mismatch to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("host fingerprint mismatch"),
              std::string::npos);
  }
  opts.expect_host = "aaaaaaaaaaaaaaaa";
  EXPECT_EQ(ResultStore::load(path("s.tsv"), opts).size(), 1u);
}

TEST_F(ResultStoreTest, LoadRejectsForeignMachineWhenExpected) {
  ResultStore store;
  store.put(key(), result());
  store.save(path("s.tsv"));
  StoreLoadOptions opts;
  opts.expect_machine = "some-other-machine";
  EXPECT_THROW(ResultStore::load(path("s.tsv"), opts), std::runtime_error);
}

TEST_F(ResultStoreTest, LoadRejectsConflictingDuplicateRecords) {
  // `cat a.tsv b.tsv > c.tsv` instead of `amresult merge`, with a stale
  // run of one scenario in b: the same key appears twice with different
  // numbers. load() must refuse to pick a winner (identical duplicates
  // are fine — they dedupe).
  ResultStore fresh, stale;
  fresh.put(key(), result(0.5), "hosta");
  stale.put(key(), result(0.75), "hosta");
  fresh.save(path("fresh.tsv"));
  stale.save(path("stale.tsv"));
  std::ofstream cat(path("cat.tsv"));
  for (const char* name : {"fresh.tsv", "stale.tsv"}) {
    std::ifstream in(path(name));
    cat << in.rdbuf();
  }
  cat.close();
  try {
    ResultStore::load(path("cat.tsv"));
    FAIL() << "expected conflicting duplicate to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("conflicting results"),
              std::string::npos);
  }

  std::ofstream dup(path("dup.tsv"));
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(path("fresh.tsv"));
    dup << in.rdbuf();
  }
  dup.close();
  EXPECT_EQ(ResultStore::load(path("dup.tsv")).size(), 1u);
}

TEST_F(ResultStoreTest, MergeDeduplicatesAndDetectsConflicts) {
  ResultStore a, b;
  a.put(key("w", 1), result(0.5), "hosta");
  b.put(key("w", 1), result(0.5), "hosta");  // identical payload: dedupe
  b.put(key("w", 2), result(0.25), "hosta");
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);

  ResultStore conflicting;
  conflicting.put(key("w", 2), result(0.75), "hosta");  // different payload
  EXPECT_THROW(a.merge(conflicting), std::runtime_error);
}

TEST_F(ResultStoreTest, HostsListsDistinctProvenance) {
  ResultStore store;
  store.put(key("w", 1), result(), "hosta");
  store.put(key("w", 2), result(), "hostb");
  store.put(key("w", 3), result(), "hosta");
  EXPECT_EQ(store.hosts().size(), 2u);
}

TEST_F(ResultStoreTest, MachineFingerprintTracksConfig) {
  const auto base = machine_fingerprint(machine());
  EXPECT_EQ(base, machine_fingerprint(machine()));
  auto m = machine();
  m.l3.size_bytes *= 2;
  EXPECT_NE(machine_fingerprint(m), base);
  m = machine();
  m.mem_bandwidth_bytes_per_sec += 1.0;
  EXPECT_NE(machine_fingerprint(m), base);
  m = machine();
  m.prefetcher.enabled = false;
  EXPECT_NE(machine_fingerprint(m), base);
}

TEST_F(ResultStoreTest, MachineFingerprintKeysMemoryBackend) {
  const auto base = machine_fingerprint(machine());
  // Selecting the banked backend changes results, so it must change the
  // key; its timing knobs must too.
  auto m = machine();
  m.mem_backend = sim::MemBackendKind::kBankedDram;
  const auto banked = machine_fingerprint(m);
  EXPECT_NE(banked, base);
  m.dram.banks *= 2;
  EXPECT_NE(machine_fingerprint(m), banked);
  m = machine();
  sim::apply_mem_backend(m, "ddr4");
  const auto ddr4 = machine_fingerprint(m);
  sim::apply_mem_backend(m, "hbm");
  EXPECT_NE(machine_fingerprint(m), ddr4);
  // Under the default channel backend the dram knobs are inert (the
  // model never reads them), so they must NOT perturb the key — that is
  // what keeps every pre-backend store record reachable.
  m = machine();
  m.dram.t_cas += 7;
  m.dram.channels = 16;
  EXPECT_EQ(machine_fingerprint(m), base);
}

TEST_F(ResultStoreTest, MachineFingerprintKeysSetHash) {
  const auto base = machine_fingerprint(machine());
  // H3 reshuffles every set mapping — different placement, different
  // results — so it must cache under a distinct store key.
  auto m = machine();
  sim::apply_set_hash(m, "h3");
  EXPECT_NE(machine_fingerprint(m), base);
  // The explicit default spelling keys identically to the implicit
  // default, so pre-refactor records stay reachable.
  m = machine();
  sim::apply_set_hash(m, "mask");
  EXPECT_EQ(machine_fingerprint(m), base);
}

// ---------------------------------------------------------------------------
// Cache-aware and sharded SweepRunner execution.

struct CountingFactory {
  /// Counts engine instantiations so tests can assert "zero engine runs on
  /// a cached re-run". shared_ptr: factories are copied into plans.
  std::shared_ptr<std::atomic<int>> runs =
      std::make_shared<std::atomic<int>>(0);

  SimBackend::WorkloadFactory factory(double l3_fraction = 1.2,
                                      std::uint64_t accesses = 6'000) const {
    const auto elements = static_cast<std::uint64_t>(
        l3_fraction * static_cast<double>(machine().l3.size_bytes) / 4);
    auto inner = make_synthetic_workload(apps::SyntheticConfig{
        AccessDistribution::uniform(elements, "Uni"), 4, 1, elements / 4,
        accesses});
    return [runs = runs, inner](sim::Engine& engine) {
      runs->fetch_add(1);
      return inner(engine);
    };
  }
};

SweepRunnerOptions options() {
  SweepRunnerOptions opts;
  opts.cs.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  opts.bw.buffer_bytes = 520ull * 1024 / kScale;
  return opts;
}

ExperimentPlan small_plan(const CountingFactory& counter) {
  ExperimentPlan plan;
  const auto a = plan.add_workload({"a", counter.factory(1.2)});
  const auto b = plan.add_workload({"b", counter.factory(0.5)});
  plan.add_sweep(a, Resource::kCacheStorage, 0, 2);
  plan.add_sweep(a, Resource::kBandwidth, 0, 1);
  plan.add_sweep(b, Resource::kCacheStorage, 0, 1);
  return plan;  // 6 unique points (bandwidth k=0 folds into a's baseline)
}

void expect_identical(const ExperimentPlan& plan, const ResultTable& x,
                      const ResultTable& y) {
  ASSERT_EQ(x.size(), y.size());
  for (const auto& pt : plan.points()) {
    const auto& rx = x.at(pt.workload, pt.resource, pt.threads);
    const auto& ry = y.at(pt.workload, pt.resource, pt.threads);
    EXPECT_EQ(rx.seconds, ry.seconds);  // bitwise
    EXPECT_EQ(rx.cycles, ry.cycles);
    EXPECT_EQ(rx.app.loads, ry.app.loads);
    EXPECT_EQ(rx.app.bytes_from_mem, ry.app.bytes_from_mem);
    EXPECT_EQ(rx.app_l3_miss_rate, ry.app_l3_miss_rate);
  }
}

TEST_F(ResultStoreTest, SecondCachedRunExecutesNothingAndIsBitIdentical) {
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  const SweepRunner runner(machine(), options());

  ResultStore store;
  std::size_t executed = ~0u;
  const auto first = runner.run(plan, nullptr, &store, {}, &executed);
  EXPECT_EQ(executed, plan.size());
  const int runs_after_first = counter.runs->load();
  EXPECT_EQ(runs_after_first, static_cast<int>(plan.size()));

  // Persist + reload: the second run must hit the cache for every point.
  store.save(path("cache.tsv"));
  auto reloaded = ResultStore::load(path("cache.tsv"));
  const auto second = runner.run(plan, nullptr, &reloaded, {}, &executed);
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(counter.runs->load(), runs_after_first);  // zero engine runs
  expect_identical(plan, first, second);
}

TEST_F(ResultStoreTest, CheckpointPersistsEveryCompletedPoint) {
  // The crash-resilience contract behind orchestrated retries: with a
  // checkpoint configured, every completed engine run reaches disk before
  // the next one starts, so a killed process loses only in-flight work.
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  auto opts = options();
  const auto ckpt = path("checkpoint.tsv");
  std::vector<std::size_t> sizes_on_disk;
  opts.checkpoint = [&](const ResultStore& store) {
    store.save(ckpt);
    sizes_on_disk.push_back(ResultStore::load(ckpt).size());
  };
  const SweepRunner runner(machine(), opts);

  ResultStore store;
  runner.run(plan, nullptr, &store, {}, nullptr);
  ASSERT_EQ(sizes_on_disk.size(), plan.size());  // one save per fresh point
  for (std::size_t i = 0; i < sizes_on_disk.size(); ++i)
    EXPECT_EQ(sizes_on_disk[i], i + 1);  // strictly growing on disk

  // A "crashed" process's checkpoint (here: the full file minus nothing —
  // simulate a partial one by reloading an early checkpoint) seeds the
  // retry: re-running against the final checkpoint executes zero points.
  auto resumed = ResultStore::load(ckpt);
  std::size_t executed = ~0u;
  runner.run(plan, nullptr, &resumed, {}, &executed);
  EXPECT_EQ(executed, 0u);
}

TEST_F(ResultStoreTest, PartiallyCachedRunKeysFreshRecordsByPlanPoint) {
  // Regression: with some points already cached, each fresh result must be
  // recorded under its own plan point's key. A slip that keyed fresh
  // records by todo-list position instead silently overwrote correct
  // cached records with other points' results — exactly the state a
  // supervised retry resumes from (its predecessor's partial checkpoint).
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  const SweepRunner runner(machine(), options());
  const auto direct = runner.run(plan);

  // Seed the store with shard 0's half of the grid only.
  ResultStore store;
  std::size_t executed = 0;
  runner.run(plan, nullptr, &store, {0, 2}, &executed);
  ASSERT_EQ(executed, plan.shard(0, 2).size());

  // "Resume": the full plan over the partial store runs only the rest.
  const auto resumed = runner.run(plan, nullptr, &store, {}, &executed);
  EXPECT_EQ(executed, plan.size() - plan.shard(0, 2).size());
  expect_identical(plan, direct, resumed);

  // Every plan point must now sit under its own key...
  for (std::size_t i = 0; i < plan.size(); ++i)
    EXPECT_NE(store.find(runner.key_for(plan, i)), nullptr)
        << "plan point " << i << " missing from the store";
  // ...so a further run is fully cached and still bit-identical.
  const auto rerun = runner.run(plan, nullptr, &store, {}, &executed);
  EXPECT_EQ(executed, 0u);
  expect_identical(plan, direct, rerun);
}

TEST_F(ResultStoreTest, CheckpointerThrottlesFullFileSaves) {
  // The store is rewritten whole per save, so the checkpointer rate-limits
  // itself: first call persists, calls inside the interval are skipped,
  // interval 0 persists every call.
  ResultStoreFile file(dir_.string(), "drv");
  ResultStore store;
  store.put(key("w", 1), result(), "host");

  const auto throttled = file.checkpointer(3600.0);
  throttled(store);
  ASSERT_TRUE(std::filesystem::exists(file.path()));
  store.put(key("w", 2), result(), "host");
  throttled(store);  // within the interval: must not rewrite
  EXPECT_EQ(ResultStore::load(file.path()).size(), 1u);

  const auto eager = file.checkpointer(0.0);
  eager(store);
  EXPECT_EQ(ResultStore::load(file.path()).size(), 2u);
}

TEST_F(ResultStoreTest, ShardedRunsMergeBitIdenticalToUnsharded) {
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  const SweepRunner runner(machine(), options());
  const auto direct = runner.run(plan);

  // Two shard "processes", each with its own store file.
  for (std::size_t i = 0; i < 2; ++i) {
    ResultStore shard_store;
    std::size_t executed = 0;
    runner.run(plan, nullptr, &shard_store, {i, 2}, &executed);
    EXPECT_EQ(executed, plan.shard(i, 2).size());
    shard_store.save(path("shard" + std::to_string(i) + ".tsv"));
  }

  // Merge (what `amresult merge` does), then assemble the full table from
  // cache alone: zero engine runs, bit-identical to the direct run.
  ResultStore merged = ResultStore::load(path("shard0.tsv"));
  merged.merge(ResultStore::load(path("shard1.tsv")));
  EXPECT_EQ(merged.size(), plan.size());

  const int runs_before = counter.runs->load();
  std::size_t executed = ~0u;
  const auto assembled = runner.run(plan, nullptr, &merged, {}, &executed);
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(counter.runs->load(), runs_before);
  expect_identical(plan, direct, assembled);
}

TEST_F(ResultStoreTest, RunTimesPersistInSidecarNotInTheCanonicalFile) {
  // Wall-clocks feed the scheduler's cost model, so they must survive a
  // save/load round-trip — but through the `.times` sidecar only: the
  // canonical TSV's bytes must be identical with and without them, or
  // lease-scheduled and serial sweeps would stop byte-comparing equal.
  ResultStore with_times, without_times;
  with_times.put(key("w", 1), result(), "host", /*run_seconds=*/2.5);
  without_times.put(key("w", 1), result(), "host");
  with_times.save(path("with.tsv"));
  without_times.save(path("without.tsv"));

  std::ifstream a(path("with.tsv")), b(path("without.tsv"));
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  EXPECT_TRUE(std::filesystem::exists(path("with.tsv.times")));
  const auto reloaded = ResultStore::load(path("with.tsv"));
  EXPECT_EQ(reloaded.run_seconds(key("w", 1)), 2.5);
  EXPECT_EQ(reloaded.run_seconds(key("other", 1)), 0.0);

  // A lost/absent sidecar degrades to "unknown", never an error.
  const auto bare = ResultStore::load(path("without.tsv"));
  EXPECT_EQ(bare.run_seconds(key("w", 1)), 0.0);
}

TEST_F(ResultStoreTest, MergeAdoptsRunTimesWithoutOverridingKnownOnes) {
  ResultStore a, b;
  a.put(key("w", 1), result(), "host", 1.5);
  a.put(key("w", 2), result(), "host");  // unknown here...
  b.put(key("w", 1), result(), "host", 9.0);
  b.put(key("w", 2), result(), "host", 3.0);  // ...known there
  a.merge(b);
  EXPECT_EQ(a.run_seconds(key("w", 1)), 1.5);  // ours wins when known
  EXPECT_EQ(a.run_seconds(key("w", 2)), 3.0);  // theirs fills the gap
}

TEST_F(ResultStoreTest, LeasedBatchesMergeBitIdenticalToSerial) {
  // The dynamic-scheduler acceptance contract, in-process: run the plan
  // serially, then as cost-skewed leased batches bounced across two
  // simulated worker stores, and require the merged store *file* to be
  // byte-identical to the serial one.
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  const SweepRunner runner(machine(), options());

  ResultStore serial;
  runner.run(plan, nullptr, &serial, {}, nullptr);
  serial.save(path("serial.tsv"));

  // Deliberately lumpy cost model → uneven batches, exercised across
  // two worker stores round-robin (like two lease-worker processes).
  std::vector<double> costs(plan.size(), 1.0);
  costs[0] = 50.0;
  costs[plan.size() - 1] = 25.0;
  const auto batches = make_batches(plan.size(), 4, costs);
  ResultStore workers[2];
  std::size_t served = 0;
  for (const auto& lease : batches) {
    if (lease.points.empty()) continue;
    std::size_t executed = 0;
    runner.run_points(plan, nullptr, &workers[served++ % 2], lease.points,
                      &executed);
    EXPECT_EQ(executed, lease.points.size());
  }

  ResultStore merged;
  merged.merge(workers[0]);
  merged.merge(workers[1]);
  merged.save(path("merged.tsv"));

  std::ifstream a(path("serial.tsv")), b(path("merged.tsv"));
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST_F(ResultStoreTest, ForLeaseStoreSeedsFromCanonicalCache) {
  // A lease worker's store must start from the canonical cache, so a
  // re-sweep stays fully cached even when the scheduler hands this
  // worker points a different worker ran last time.
  ResultStore canonical;
  canonical.put(key("w", 1), result(), "host", 4.0);
  canonical.save(path("drv.tsv"));

  auto file = ResultStoreFile::for_lease(dir_.string(), "drv",
                                         path("drv.lease0"));
  ASSERT_NE(file.store(), nullptr);
  EXPECT_EQ(file.path(), path("drv.lease0.tsv"));
  EXPECT_TRUE(file.store()->has(key("w", 1)));
  EXPECT_EQ(file.store()->run_seconds(key("w", 1)), 4.0);
  // The canonical records are a lookup seed: the lease store file holds
  // only what the lease itself put there.
  file.save();
  EXPECT_TRUE(ResultStore::load(file.path()).empty());

  EXPECT_THROW(ResultStoreFile::for_lease(dir_.string(), "drv", ""),
               std::invalid_argument);
}

TEST_F(ResultStoreTest, SeedIsLookedUpButOnlyAdoptedRecordsAreSaved) {
  ResultStore cache;
  cache.put(key("seeded", 1), result(), "host-a", 2.0);
  cache.put(key("shared", 1), result(), "host-a");

  ResultStore store;
  store.put(key("shared", 1), result(), "host-b");
  store.seed(cache);
  EXPECT_TRUE(store.has(key("seeded", 1)));
  EXPECT_EQ(store.run_seconds(key("seeded", 1)), 2.0);
  EXPECT_FALSE(store.has(key("absent", 1)));
  EXPECT_EQ(store.size(), 1u);
  // Own records win over the seed.
  EXPECT_EQ(store.records()[0]->host, "host-b");

  store.adopt(key("absent", 1));  // in neither: no-op
  store.adopt(key("shared", 1));  // already own: no-op
  store.adopt(key("seeded", 1));
  store.save(path("adopted.tsv"));
  const auto saved = ResultStore::load(path("adopted.tsv"));
  ASSERT_EQ(saved.size(), 2u);
  EXPECT_TRUE(saved.has(key("seeded", 1)));
  EXPECT_EQ(saved.run_seconds(key("seeded", 1)), 2.0);
  for (const auto* rec : saved.records())
    EXPECT_EQ(rec->host, rec->key.workload == "seeded" ? "host-a" : "host-b");
}

TEST_F(ResultStoreTest, ShardedTableContainsOnlyOwnedPoints) {
  const CountingFactory counter;
  const auto plan = small_plan(counter);
  const SweepRunner runner(machine(), options());
  ResultStore store;
  const auto table = runner.run(plan, nullptr, &store, {0, 2});
  EXPECT_EQ(table.size(), plan.shard(0, 2).size());
  const auto& pt1 = plan.points()[1];  // owned by shard 1
  EXPECT_EQ(table.get(pt1.workload, pt1.resource, pt1.threads), nullptr);
}

}  // namespace
}  // namespace am::measure
