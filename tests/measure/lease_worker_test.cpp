// The lease worker's streaming protocol, driven in-process: the test
// thread plays the scheduler (writing offers, reading the ack file) while
// run_lease_worker runs on another thread over a small pool. Workloads
// that block on a gate pin a point in flight, so the tests can observe
// the worker across lease boundaries. Also covers the ack file format.
#include "measure/lease.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/work_lease.hpp"
#include "measure/app_workloads.hpp"
#include "model/distributions.hpp"

namespace am::measure {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr std::uint32_t kScale = 64;

sim::MachineConfig machine() {
  return sim::MachineConfig::xeon20mb_scaled(kScale);
}

SweepRunnerOptions options() {
  SweepRunnerOptions opts;
  opts.cs.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  opts.bw.buffer_bytes = 520ull * 1024 / kScale;
  return opts;
}

SimBackend::WorkloadFactory synth_factory() {
  const auto elements = static_cast<std::uint64_t>(
      1.2 * static_cast<double>(machine().l3.size_bytes) / 4);
  return make_synthetic_workload(apps::SyntheticConfig{
      model::AccessDistribution::uniform(elements, "Uni"), 4, 1,
      elements / 4, 6'000});
}

/// Holds every engine run of a gated workload until opened. Idempotent,
/// so a failing test can always open it and let the pool drain.
class Gate {
 public:
  void open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

class LeaseWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_lease_worker_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    lease_ = (dir_ / "drv.lease0").string();
  }
  void TearDown() override {
    // A failed assertion may leave the worker waiting: release it.
    gate_.open();
    if (worker_.valid()) {
      offer_done(UINT64_MAX);
      worker_.wait();
    }
    fs::remove_all(dir_);
  }

  /// Plan points 0..2 run a gated synthetic workload; 3.. do not.
  ExperimentPlan plan_with_gate() {
    ExperimentPlan plan;
    const auto gated = plan.add_workload(
        {"gated", [this, inner = synth_factory()](sim::Engine& engine) {
           gate_.wait();
           return inner(engine);
         }});
    const auto free = plan.add_workload({"free", synth_factory()});
    plan.add_sweep(gated, Resource::kCacheStorage, 0, 2);
    plan.add_sweep(free, Resource::kCacheStorage, 0, 2);
    plan.add_point(free, Resource::kBandwidth, 1);
    return plan;
  }

  /// Starts the worker over plan_ on its own thread; worker_.get()
  /// returns its report or rethrows what it threw.
  void start() {
    worker_ = std::async(std::launch::async, [this] {
      auto store = ResultStoreFile::for_lease(dir(), "drv", lease_);
      LeaseWorkerOptions opts;
      opts.poll_seconds = 0.002;
      opts.idle_timeout_seconds = 60.0;
      std::ostringstream out;
      return run_lease_worker(plan_, runner_, &pool_, store, lease_, out,
                              opts);
    });
  }

  void offer(std::uint64_t id, std::vector<std::size_t> points) {
    LeaseOffer off;
    off.lease.id = id;
    off.lease.points = std::move(points);
    write_lease_offer(lease_, off);
  }
  void offer_done(std::uint64_t id) {
    LeaseOffer off;
    off.lease.id = id;
    off.done = true;
    write_lease_offer(lease_, off);
  }

  /// Polls the ack file until `pred` holds (false after 20 s).
  template <typename Pred>
  bool await_acks(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (const auto acks = read_lease_acks(lease_ack_path(lease_)))
        if (pred(*acks)) return true;
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }
  bool await_ready(std::uint64_t id) {
    return await_acks([id](const LeaseAckFile& f) { return f.ready == id; });
  }

  static const LeaseAck* find(const LeaseAckFile& f, std::uint64_t id) {
    for (const auto& ack : f.acks)
      if (ack.lease_id == id) return &ack;
    return nullptr;
  }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
  std::string lease_;
  Gate gate_;  // declared before the pool: outlives its threads
  ThreadPool pool_{2};
  SweepRunner runner_{machine(), options()};
  ExperimentPlan plan_ = plan_with_gate();
  std::future<LeaseWorkerReport> worker_;
};

TEST_F(LeaseWorkerTest, ReadyArrivesWhileAnEarlierLeaseStillRuns) {
  start();

  offer(1, {0});  // held in flight by the gate
  ASSERT_TRUE(await_ready(1));
  auto acks = read_lease_acks(lease_ack_path(lease_));
  ASSERT_TRUE(acks.has_value());
  EXPECT_EQ(find(*acks, 1), nullptr) << "lease 1 acked with its point held";

  // The second lane takes the next lease while lease 1 still runs; lease
  // 2 completes (and is acknowledged) first.
  offer(2, {3, 4});
  ASSERT_TRUE(await_acks(
      [](const LeaseAckFile& f) { return find(f, 2) != nullptr; }));
  acks = read_lease_acks(lease_ack_path(lease_));
  EXPECT_EQ(find(*acks, 1), nullptr);
  EXPECT_EQ(acks->ready, 2u);

  gate_.open();
  ASSERT_TRUE(await_acks(
      [](const LeaseAckFile& f) { return find(f, 1) != nullptr; }));
  offer_done(3);
  const auto report = worker_.get();
  EXPECT_EQ(report.leases, 2u);
  EXPECT_EQ(report.points, 3u);
  EXPECT_EQ(report.executed, 3u);

  acks = read_lease_acks(lease_ack_path(lease_));
  ASSERT_EQ(acks->acks.size(), 2u);
  EXPECT_EQ(acks->acks[0].lease_id, 2u);
  EXPECT_EQ(acks->acks[0].points, 2u);
  EXPECT_EQ(acks->acks[0].executed, 2u);
  EXPECT_EQ(acks->acks[1].lease_id, 1u);
  EXPECT_EQ(acks->acks[1].points, 1u);
  EXPECT_EQ(acks->acks[1].executed, 1u);
}

TEST_F(LeaseWorkerTest, StreamedStoreIsByteIdenticalToSerialRunPoints) {
  gate_.open();
  start();

  // Offer the next lease on every `ready`, as the orchestrator does.
  const std::vector<std::vector<std::size_t>> leases = {
      {0, 5, 6}, {1, 3}, {2, 4}, {0, 3}};
  for (std::size_t l = 0; l < 3; ++l) {
    offer(l + 1, leases[l]);
    ASSERT_TRUE(await_ready(l + 1));
  }
  // Once those are recorded, re-offered points must be cache hits.
  ASSERT_TRUE(
      await_acks([](const LeaseAckFile& f) { return f.acks.size() == 3; }));
  offer(4, leases[3]);
  ASSERT_TRUE(
      await_acks([](const LeaseAckFile& f) { return f.acks.size() == 4; }));
  offer_done(5);
  const auto report = worker_.get();
  EXPECT_EQ(report.leases, 4u);
  EXPECT_EQ(report.points, 9u);
  EXPECT_EQ(report.executed, plan_.size());

  // Each lease acknowledged exactly once, with its own counts.
  const auto acks = read_lease_acks(lease_ack_path(lease_));
  ASSERT_TRUE(acks.has_value());
  ASSERT_EQ(acks->acks.size(), leases.size());
  std::set<std::uint64_t> ids;
  for (const auto& ack : acks->acks) {
    ASSERT_TRUE(ids.insert(ack.lease_id).second) << ack.lease_id;
    ASSERT_GE(ack.lease_id, 1u);
    ASSERT_LE(ack.lease_id, leases.size());
    EXPECT_EQ(ack.points, leases[ack.lease_id - 1].size());
  }
  EXPECT_EQ(find(*acks, 4)->executed, 0u) << "covered points must hit";

  ResultStore serial;
  std::vector<std::size_t> all(plan_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  runner_.run_points(plan_, nullptr, &serial, all);
  const std::string serial_path = dir() + "/serial.tsv";
  serial.save(serial_path);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(lease_store_path(lease_)), slurp(serial_path));
}

TEST_F(LeaseWorkerTest, DoneOfferDrainsOpenLeases) {
  start();
  offer(1, {0, 3});
  ASSERT_TRUE(await_ready(1));
  offer_done(2);
  // The worker must not return while lease 1 has a point in flight.
  EXPECT_EQ(worker_.wait_for(100ms), std::future_status::timeout);
  gate_.open();
  const auto report = worker_.get();
  EXPECT_EQ(report.leases, 1u);
  EXPECT_EQ(report.points, 2u);
  const auto acks = read_lease_acks(lease_ack_path(lease_));
  ASSERT_TRUE(acks.has_value());
  ASSERT_EQ(acks->acks.size(), 1u);
  EXPECT_EQ(acks->acks[0].lease_id, 1u);
  // Durable before the receipt: the store file holds both points.
  EXPECT_EQ(ResultStore::load(lease_store_path(lease_)).size(), 2u);
}

TEST_F(LeaseWorkerTest, ThrowingPointIsRethrownAfterInFlightPointsSettle) {
  const auto boom = plan_.add_workload(
      {"boom", [](sim::Engine&) -> WorkloadInfo {
         throw std::runtime_error("factory exploded");
       }});
  plan_.add_point(boom, Resource::kCacheStorage, 0);
  start();
  offer(1, {0, plan_.size() - 1});
  // The failure is known at once, but the gated point is still running
  // on a pool thread that references the worker's state.
  EXPECT_EQ(worker_.wait_for(200ms), std::future_status::timeout);
  gate_.open();
  EXPECT_THROW(worker_.get(), std::runtime_error);
  const auto acks = read_lease_acks(lease_ack_path(lease_));
  EXPECT_TRUE(!acks || find(*acks, 1) == nullptr) << "failed lease acked";
}

TEST_F(LeaseWorkerTest, OutOfRangeIndexThrowsInvalidArgument) {
  gate_.open();
  start();
  offer(1, {plan_.size()});
  EXPECT_THROW(worker_.get(), std::invalid_argument);
}

class LeaseAckFormatTest : public LeaseWorkerTest {
 protected:
  std::optional<LeaseAckFile> parse(const std::string& text) {
    const std::string path = dir() + "/acks";
    std::ofstream(path) << text;
    return read_lease_acks(path);
  }
};

TEST_F(LeaseAckFormatTest, MultiRecordFileWithReadyRoundTrips) {
  LeaseAckFile file;
  file.acks.push_back({4, 3, 2, 0.1});
  file.acks.push_back({7, 1, 0, 1.0 / 3.0});
  file.ready = 9;
  const std::string path = dir() + "/acks";
  write_lease_acks(path, file);
  const auto back = read_lease_acks(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->acks.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back->acks[i].lease_id, file.acks[i].lease_id);
    EXPECT_EQ(back->acks[i].points, file.acks[i].points);
    EXPECT_EQ(back->acks[i].executed, file.acks[i].executed);
    EXPECT_EQ(back->acks[i].wall_seconds, file.acks[i].wall_seconds);
  }
  EXPECT_EQ(back->ready, 9u);
}

TEST_F(LeaseAckFormatTest, LegacySingleRecordFileIsOneRecord) {
  const auto file = parse(
      "#am-lease-ack v1\nlease\t5\npoints\t3\nexecuted\t2\nwall\t0.25\n");
  ASSERT_TRUE(file.has_value());
  ASSERT_EQ(file->acks.size(), 1u);
  EXPECT_EQ(file->acks[0].lease_id, 5u);
  EXPECT_EQ(file->acks[0].points, 3u);
  EXPECT_EQ(file->acks[0].executed, 2u);
  EXPECT_EQ(file->acks[0].wall_seconds, 0.25);
  EXPECT_FALSE(file->ready.has_value());
}

TEST_F(LeaseAckFormatTest, RejectsMalformedFiles) {
  EXPECT_FALSE(parse("#am-lease-ack v1\npoints\t3\nlease\t5\n"))
      << "a field before any lease line";
  EXPECT_FALSE(parse("#am-lease-ack v1\nlease\t5\nready\t5\nready\t6\n"))
      << "a repeated ready line";
  EXPECT_FALSE(parse("#am-lease-ack v1\n")) << "neither records nor ready";
  EXPECT_FALSE(parse("#am-lease-ack v1\nready\t-1\n"));
  EXPECT_TRUE(parse("#am-lease-ack v1\nready\t3\n"));
}

}  // namespace
}  // namespace am::measure
