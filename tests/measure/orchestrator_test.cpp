// SweepOrchestrator failure-path coverage with /bin/sh stand-in lease
// workers: real engine-running workers are exercised end to end by the
// smoke.amsweep ctest entry; here the workers are tiny scripts so the
// supervision logic (retry on kill, retry-budget exhaustion + manifest,
// usage fail-fast, stall kills, requeue bisection, merge) is testable in
// milliseconds. Pre-created slot store files (<lease>.tsv) play the part
// of a worker's persisted records.
#include "measure/orchestrator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "wire_goldens.hpp"

namespace am::measure {
namespace {

namespace fs = std::filesystem;

ScenarioKey key(const std::string& workload, std::uint32_t threads) {
  return ScenarioKey::make("machine-fp", workload, Resource::kCacheStorage,
                           threads, "cs:b4096:n4:w1000", 7, 1'000'000);
}

SimRunResult result(double seconds) {
  SimRunResult r;
  r.seconds = seconds;
  r.cycles = 1000;
  return r;
}

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_orchestrator_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// Pre-creates worker slot w's store file holding one record, as if a
  /// worker had already persisted its leases.
  void seed_slot_store(std::size_t w) {
    ResultStore store;
    store.put(key("workload-" + std::to_string(w), 1), result(0.1 + w),
              "host-fp");
    store.save(lease_store_path(dir() + "/drv.lease" + std::to_string(w)));
  }

  /// Options for sh-script workers: the script body receives the appended
  /// flags as positional parameters (see worker_script).
  OrchestratorOptions opts(const std::string& script, std::size_t retries) {
    OrchestratorOptions o;
    o.worker_command = {"/bin/sh", "-c", script, "worker"};
    o.results_dir = dir();
    o.driver = "drv";
    o.workers = 2;
    o.retries = retries;
    o.poll_seconds = 0.005;
    return o;
  }

  std::string manifest() const {
    std::ifstream in(SweepOrchestrator::manifest_path(dir(), "drv"));
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  fs::path dir_;
};

/// A /bin/sh worker script: answers the --emit-plan probe with an
/// n-point plan whose cost lines are `plan_lines` (printf-escaped
/// plan-info lines; by default a uniform cost line per point), and as a
/// lease worker runs `lease_body`. The appended flags arrive as
/// $1=--results-dir $2=<dir> then either $3=--emit-plan $4=<file> or
/// $3=--lease $4=<file> $5=--worker.
std::string worker_script(std::size_t points, const std::string& lease_body,
                          std::optional<std::string> plan_lines = {}) {
  if (!plan_lines) {
    plan_lines.emplace();
    for (std::size_t i = 0; i < points; ++i)
      *plan_lines += "cost\\t" + std::to_string(i) + "\\t1\\n";
  }
  return "case \"$3\" in --emit-plan) printf '#am-plan-info v1\\npoints\\t" +
         std::to_string(points) + "\\n" + *plan_lines +
         "' > \"$4.tmp\" && mv \"$4.tmp\" \"$4\"; exit 0;; esac\n" +
         lease_body;
}

/// A lease body acknowledging every offered lease until the done offer,
/// each ack reporting 1 point, 2 engine runs and 0.25 s.
constexpr const char* kAckEveryLease = R"sh(
lease=$4; last=
while :; do
  if [ -f "$lease" ]; then
    id=$(awk '$1=="lease"{print $2}' "$lease")
    dn=$(awk '$1=="done"{print $2}' "$lease")
    if [ -n "$id" ] && [ "$id" != "$last" ]; then
      if [ "$dn" = "1" ]; then exit 0; fi
      printf '#am-lease-ack v1\nlease\t%s\npoints\t1\nexecuted\t2\nwall\t0.25\n' \
        "$id" > "$lease.ack.tmp" && mv "$lease.ack.tmp" "$lease.ack"
      last=$id
    fi
  fi
  sleep 0.01
done
)sh";

TEST_F(OrchestratorTest, RejectsUnusableConfigurations) {
  OrchestratorOptions o = opts("exit 0", 0);
  o.worker_command.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 0);
  o.results_dir.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 0);
  o.workers = 0;
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
}

TEST_F(OrchestratorTest, MergesWorkerStoresIntoCanonicalFile) {
  seed_slot_store(0);
  seed_slot_store(1);
  SweepOrchestrator orch(opts(worker_script(2, kAckEveryLease), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_TRUE(report.missing_points.empty());
  EXPECT_EQ(report.merged_records, 2u);
  ASSERT_EQ(report.attempts.size(), 2u);

  const auto merged = ResultStore::load(report.merged_path);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_TRUE(merged.has(key("workload-0", 1)));
  EXPECT_TRUE(merged.has(key("workload-1", 1)));
  EXPECT_NE(manifest().find("status\tok"), std::string::npos);
}

TEST_F(OrchestratorTest, MergePreservesExistingCanonicalRecords) {
  // The canonical store may hold records from earlier runs (other scales,
  // other grids) — documented to sit idle in the file. Completing a sweep
  // must extend that cache, never replace it with only this grid's
  // worker stores.
  ResultStore prior;
  prior.put(key("earlier-grid", 3), result(0.5), "host-fp");
  prior.save(store_path(dir(), "drv"));
  seed_slot_store(0);
  seed_slot_store(1);
  SweepOrchestrator orch(opts(worker_script(2, kAckEveryLease), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.merged_records, 3u);
  const auto merged = ResultStore::load(report.merged_path);
  EXPECT_TRUE(merged.has(key("earlier-grid", 3)));
  EXPECT_TRUE(merged.has(key("workload-0", 1)));
  EXPECT_TRUE(merged.has(key("workload-1", 1)));
}

TEST_F(OrchestratorTest, WorkerKilledMidLeaseIsRetried) {
  seed_slot_store(0);
  // The first worker claims the marker and dies as if SIGKILLed holding
  // its lease; the respawn finds no marker and acknowledges it.
  const auto marker = dir() + "/crash.marker";
  std::ofstream(marker) << "";
  SweepOrchestrator orch(opts(
      worker_script(1, "if rm " + marker + " 2>/dev/null; then kill -9 $$; "
                       "fi\n" + kAckEveryLease),
      1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.merged_records, 1u);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_EQ(report.attempts[0].status.signal, 9);
  EXPECT_TRUE(report.attempts[1].status.success());
  EXPECT_EQ(report.attempts[1].attempt, 1u);
  EXPECT_NE(manifest().find("signal 9"), std::string::npos);
}

TEST_F(OrchestratorTest, UsageExitFailsFastWithoutRetry) {
  SweepOrchestrator orch(opts(worker_script(2, "exit 2"), 5));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.error.empty());
  // Fail-fast: nowhere near (1 + retries) * points attempts.
  EXPECT_LE(report.attempts.size(), 2u);
  EXPECT_EQ(report.missing_points.size(), 2u);
}

TEST_F(OrchestratorTest, ExitZeroHoldingALeaseIsRequeuedUntilBudgetRunsOut) {
  // A worker must acknowledge what it takes; an exit 0 that leaves a
  // lease unacknowledged is a failure the orchestrator catches (and
  // requeues — here until the point's budget ends).
  SweepOrchestrator orch(opts(worker_script(1, "exit 0"), 1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.missing_points.size(), 1u);
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, StaleHeartbeatGetsWorkerKilled) {
  // The worker fakes a heartbeat next to its lease file that then never
  // advances; the orchestrator must kill it long before the 30 s sleep
  // finishes.
  auto o = opts(worker_script(1, "printf '1\\t1\\n' > \"$4.hb\"; sleep 30"), 0);
  o.stall_timeout_seconds = 0.2;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(manifest().find("[stalled]"), std::string::npos);
}

TEST_F(OrchestratorTest, SequenceStuckHeartbeatIsAStallEvenWithFreshMtimes) {
  // NTP-immunity regression: this worker rewrites its heartbeat file
  // forever — fresh mtime every 50 ms — but the beat sequence number
  // never advances. Mtime-based staleness would call it alive
  // indefinitely; sequence-progress supervision must kill it.
  auto o = opts(worker_script(1,
                              "while :; do printf '1\\t1\\n' > \"$4.hb\"; "
                              "sleep 0.05; done"),
                0);
  o.stall_timeout_seconds = 0.3;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(log.str().find("heartbeat stuck at beat 1"), std::string::npos);
}

TEST_F(OrchestratorTest, WorkerWedgedBeforeFirstBeatIsKilled) {
  // This worker never writes a heartbeat at all (wedged during startup,
  // before the writer thread exists). Real --worker drivers beat
  // immediately, so time since spawn must trip the same timeout, or the
  // sweep would hang on the 30 s sleep.
  auto o = opts(worker_script(1, "sleep 30"), 0);
  o.stall_timeout_seconds = 0.2;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_TRUE(report.attempts[0].stalled);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_LT(report.attempts[0].wall_seconds, 10.0);
  EXPECT_NE(log.str().find("no heartbeat"), std::string::npos);
}

TEST_F(OrchestratorTest, LeaseModeDrainsTheQueueAndRecordsLoadStats) {
  SweepOrchestrator orch(opts(worker_script(3, kAckEveryLease), 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.plan_points, 3u);
  // 3 points → 3 singleton batches, every one acknowledged, each ack
  // reporting 2 engine runs.
  EXPECT_EQ(report.leases.size(), 3u);
  for (const auto& lease : report.leases) {
    EXPECT_TRUE(lease.completed);
    EXPECT_EQ(lease.executed, 2u);
  }
  EXPECT_EQ(report.engine_runs, 6u);
  EXPECT_TRUE(report.missing_points.empty());
  ASSERT_EQ(report.worker_stats.size(), 2u);
  std::size_t batches = 0;
  for (const auto& ws : report.worker_stats) batches += ws.batches;
  EXPECT_EQ(batches, 3u);
  const auto m = manifest();
  EXPECT_NE(m.find("schedule\tlease"), std::string::npos);
  EXPECT_NE(m.find("plan_points\t3"), std::string::npos);
  EXPECT_NE(m.find("worker\t0\t"), std::string::npos);
  EXPECT_NE(m.find("worker\t1\t"), std::string::npos);
}

TEST_F(OrchestratorTest, ManifestRowsKeepTheirShape) {
  // Host, command and timing values vary; the rows and their column
  // counts do not. Two workers, three singleton leases. The script runs
  // from a file, so the command row is one line on any writer.
  const std::string script = dir() + "/worker.sh";
  std::ofstream(script) << worker_script(3, kAckEveryLease);
  OrchestratorOptions o = opts("", 0);
  o.worker_command = {"/bin/sh", script};
  SweepOrchestrator orch(o);
  std::ostringstream log;
  ASSERT_TRUE(orch.run(log).success) << log.str();
  EXPECT_EQ(golden::row_shape(manifest()),
            "#am-sweep-manifest v1\nhost/2\ndriver/2\ncommand/2\n"
            "schedule/2\nworkers/2\nretries/2\nplan_points/2\nstatus/2\n"
            "merged/2\nrecords/2\nengine_runs/2\nwall_seconds/2\n"
            "attempt/6\nattempt/6\nlease/8\nlease/8\nlease/8\n"
            "worker/7\nworker/7\nbusy_max_over_mean/2\n");
}

TEST_F(OrchestratorTest, LeaseModeRequiresASuccessfulProbe) {
  SweepOrchestrator orch(
      opts("case \"$3\" in --emit-plan) exit 3;; esac; exit 0", 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("probe"), std::string::npos) << report.error;
  EXPECT_TRUE(report.attempts.empty());  // no workers ever spawned
}

TEST_F(OrchestratorTest, UnorderableProbeCostIsAReportedProbeError) {
  // A cost the batcher cannot order (NaN, negative, infinite) fails the
  // probe: reported with a manifest, never thrown out of run().
  for (const std::string cost : {"nan", "-1", "inf"}) {
    SweepOrchestrator orch(opts(
        worker_script(1, kAckEveryLease, "cost\\t0\\t" + cost + "\\n"), 0));
    std::ostringstream log;
    OrchestratorReport report;
    ASSERT_NO_THROW(report = orch.run(log)) << cost;
    EXPECT_FALSE(report.success) << cost;
    EXPECT_NE(report.error.find("probe"), std::string::npos) << report.error;
    EXPECT_TRUE(report.attempts.empty()) << cost;
    EXPECT_NE(manifest().find("status\tfailed"), std::string::npos) << cost;
  }
}

TEST_F(OrchestratorTest, UnschedulableProbePointCountIsAReportedProbeError) {
  // A point count no plan could hold (10^15 or SIZE_MAX, with or without
  // a cost block) fails the probe the same way: run() reports it with a
  // manifest, never a length error thrown out of run() (which amsweep
  // would map to a usage exit), and slice() writes no slice.
  for (const std::size_t points :
       {std::size_t{1'000'000'000'000'000}, std::size_t{SIZE_MAX}})
    for (const std::string costs : {"", "cost\\t0\\t1\\n"}) {
      SweepOrchestrator orch(
          opts(worker_script(points, kAckEveryLease, costs), 0));
      std::ostringstream log;
      OrchestratorReport report;
      ASSERT_NO_THROW(report = orch.run(log)) << points << costs;
      EXPECT_FALSE(report.success) << costs;
      EXPECT_NE(report.error.find("probe"), std::string::npos) << report.error;
      EXPECT_TRUE(report.attempts.empty()) << costs;
      EXPECT_NE(manifest().find("status\tfailed"), std::string::npos) << costs;

      std::string error;
      EXPECT_FALSE(orch.slice(2, error)) << points << costs;
      EXPECT_NE(error.find("probe"), std::string::npos) << error;
      EXPECT_FALSE(fs::exists(dir() + "/slice_0")) << points << costs;
    }
}

TEST_F(OrchestratorTest, SliceWritesOneCostOrderedDoneOfferPerHost) {
  // Costs 1, 3, 2: the costliest points go to slice 0, each slice lists
  // its points costliest first, and a host past the plan gets an empty
  // slice.
  const SweepOrchestrator orch(opts(
      worker_script(3, "exit 3", "cost\\t0\\t1\\ncost\\t1\\t3\\ncost\\t2\\t2\\n"),
      0));
  std::string error;
  const auto read_slices = [&](std::size_t hosts) {
    std::vector<std::vector<std::size_t>> points;
    const auto slices = orch.slice(hosts, error);
    EXPECT_TRUE(slices.has_value()) << error;
    if (!slices) return points;
    EXPECT_EQ(slices->size(), hosts);
    for (std::size_t i = 0; i < slices->size(); ++i) {
      EXPECT_EQ((*slices)[i], dir() + "/slice_" + std::to_string(i));
      const auto offer = read_lease_offer((*slices)[i]);
      EXPECT_TRUE(offer && offer->done && offer->lease.id == i) << i;
      points.push_back(offer ? offer->lease.points
                             : std::vector<std::size_t>{});
    }
    return points;
  };
  EXPECT_EQ(read_slices(2),
            (std::vector<std::vector<std::size_t>>{{1, 2}, {0}}));
  EXPECT_EQ(read_slices(4),
            (std::vector<std::vector<std::size_t>>{{1}, {2}, {0}, {}}));
  EXPECT_THROW(orch.slice(0, error), std::invalid_argument);
}

TEST_F(OrchestratorTest, LeaseModeExhaustsPerPointBudgetAndNamesPoints) {
  // Workers that die holding a lease charge each leased point one
  // failure; once a point's budget is gone the sweep fails and the
  // manifest names it.
  auto o = opts(worker_script(2, "exit 3"), 1);
  o.workers = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_EQ(report.missing_points.size(), 2u);
  const auto m = manifest();
  EXPECT_NE(m.find("status\tfailed"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t0"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t1"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, ExhaustedRetryBudgetFailsAndNamesThePoint) {
  // A 2-point plan on 2 slots: one single-point lease each. Slot 0
  // acknowledges its lease; slot 1's worker always dies holding point 1.
  // The requeued point goes back to the respawned slot 1 (the fill runs
  // before slot 0 asks again) until its budget is gone.
  const std::string body =
      std::string("case \"$4\" in *.lease1) exit 3;; esac\n") + kAckEveryLease;
  SweepOrchestrator orch(opts(worker_script(2, body), /*retries=*/1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.missing_points.size(), 1u) << log.str();
  EXPECT_EQ(report.missing_points[0], 1u);
  // 1 success on slot 0 + (1 + retries) failures on slot 1.
  ASSERT_EQ(report.attempts.size(), 3u) << log.str();
  std::size_t slot1_failures = 0;
  for (const auto& a : report.attempts)
    if (a.shard == 1) {
      EXPECT_EQ(a.status.code, 3);
      ++slot1_failures;
    } else {
      EXPECT_TRUE(a.status.success());
    }
  EXPECT_EQ(slot1_failures, 2u);
  const auto m = manifest();
  EXPECT_NE(m.find("status\tfailed"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t1"), std::string::npos);
  EXPECT_EQ(m.find("missing_point\t0"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

/// Like worker_script(4, kAckEveryLease) but with acks sized to the
/// offered batch, and a one-shot poison: the first worker to claim
/// (atomically rm) the marker dies with the retryable exit code while
/// holding its lease.
constexpr const char* kPoisonOnceLeaseWorkerScript = R"sh(
case "$3" in
  --emit-plan)
    printf '#am-plan-info v1\npoints\t4\ncost\t0\t1\ncost\t1\t1\ncost\t2\t1\ncost\t3\t1\n' \
      > "$4.tmp" && mv "$4.tmp" "$4"
    exit 0 ;;
  --lease)
    lease=$4; last=
    while :; do
      if [ -f "$lease" ]; then
        id=$(awk '$1=="lease"{print $2}' "$lease")
        dn=$(awk '$1=="done"{print $2}' "$lease")
        if [ -n "$id" ] && [ "$id" != "$last" ]; then
          if [ "$dn" = "1" ]; then exit 0; fi
          if rm "$2/poison.marker" 2>/dev/null; then exit 3; fi
          np=$(awk '$1=="points"{print NF-1}' "$lease")
          printf '#am-lease-ack v1\nlease\t%s\npoints\t%s\nexecuted\t1\nwall\t0.1\n' \
            "$id" "$np" > "$lease.ack.tmp" && mv "$lease.ack.tmp" "$lease.ack"
          last=$id
        fi
      fi
      sleep 0.01
    done ;;
esac
exit 0
)sh";

TEST_F(OrchestratorTest, DeadWorkersBatchIsSplitOnRequeue) {
  // One batch holds the whole 4-point plan; the first worker dies with
  // it. The requeue must split the survivors in half — two 2-point
  // batches under fresh lease ids — instead of re-offering all 4 as one
  // block, so repeated crashes bisect toward a poison point.
  { std::ofstream(dir_ / "poison.marker") << "x"; }
  auto o = opts(kPoisonOnceLeaseWorkerScript, /*retries=*/2);
  o.lease_batches = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.leases.size(), 3u);
  EXPECT_FALSE(report.leases[0].completed);
  EXPECT_EQ(report.leases[0].points, 4u);
  EXPECT_EQ(report.leases[1].points, 2u);
  EXPECT_EQ(report.leases[2].points, 2u);
  EXPECT_TRUE(report.leases[1].completed);
  EXPECT_TRUE(report.leases[2].completed);
  // Fresh ids, never a reuse of the dead lease's id.
  EXPECT_NE(report.leases[1].id, report.leases[0].id);
  EXPECT_NE(report.leases[2].id, report.leases[0].id);
  EXPECT_TRUE(report.missing_points.empty());
  EXPECT_NE(log.str().find("split into 2 + 2"), std::string::npos)
      << log.str();
}

/// A streaming lease worker over a 4-point plan. While the marker
/// exists it takes every offer, acknowledges nothing and asks for more
/// with `ready`; on taking its second lease it dies holding both. The
/// respawn acknowledges each lease (legacy single-record acks) with a
/// reported wall of 1 s, far beyond its real lifetime.
constexpr const char* kStreamingCrashLeaseWorkerScript = R"sh(
case "$3" in
  --emit-plan)
    printf '#am-plan-info v1\npoints\t4\ncost\t0\t1\ncost\t1\t1\ncost\t2\t1\ncost\t3\t1\n' \
      > "$4.tmp" && mv "$4.tmp" "$4"
    exit 0 ;;
  --lease)
    lease=$4; last=; taken=0
    while :; do
      if [ -f "$lease" ]; then
        id=$(awk '$1=="lease"{print $2}' "$lease")
        dn=$(awk '$1=="done"{print $2}' "$lease")
        if [ -n "$id" ] && [ "$id" != "$last" ]; then
          if [ "$dn" = "1" ]; then exit 0; fi
          last=$id
          if [ -f "$2/streaming.marker" ]; then
            taken=$((taken + 1))
            if [ "$taken" = 2 ]; then rm "$2/streaming.marker"; kill -9 $$; fi
            printf '#am-lease-ack v1\nready\t%s\n' "$id" \
              > "$lease.ack.tmp" && mv "$lease.ack.tmp" "$lease.ack"
          else
            np=$(awk '$1=="points"{print NF-1}' "$lease")
            printf '#am-lease-ack v1\nlease\t%s\npoints\t%s\nexecuted\t1\nwall\t1.0\n' \
              "$id" "$np" > "$lease.ack.tmp" && mv "$lease.ack.tmp" "$lease.ack"
          fi
        fi
      fi
      sleep 0.01
    done ;;
esac
exit 0
)sh";

TEST_F(OrchestratorTest, WorkerKilledHoldingTwoLeasesRequeuesBoth) {
  { std::ofstream(dir_ / "streaming.marker") << "x"; }
  auto o = opts(kStreamingCrashLeaseWorkerScript, /*retries=*/1);
  o.workers = 1;
  o.lease_batches = 2;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 2u) << log.str();
  EXPECT_TRUE(report.attempts[0].status.signaled);
  // `ready` drew the second offer while the first was still held; both
  // went back to the queue, bisected into single-point leases.
  ASSERT_EQ(report.leases.size(), 6u) << log.str();
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_FALSE(report.leases[l].completed);
    EXPECT_EQ(report.leases[l].points, 2u);
  }
  for (std::size_t l = 2; l < 6; ++l) {
    EXPECT_TRUE(report.leases[l].completed);
    EXPECT_EQ(report.leases[l].points, 1u);
  }
  EXPECT_NE(log.str().find("holding lease 1 "), std::string::npos);
  EXPECT_NE(log.str().find("holding lease 2 "), std::string::npos);
  EXPECT_TRUE(report.missing_points.empty());
  // Busy time is wall time with a lease open, not a sum of reported
  // lease walls (4 x 1 s here).
  ASSERT_EQ(report.worker_stats.size(), 1u);
  EXPECT_GT(report.worker_stats[0].busy_seconds, 0.0);
  EXPECT_LE(report.worker_stats[0].busy_seconds,
            report.attempts[1].wall_seconds);
  EXPECT_EQ(report.worker_stats[0].respawns, 1u);
}

}  // namespace
}  // namespace am::measure
