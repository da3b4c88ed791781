// SweepOrchestrator failure-path coverage with /bin/sh stand-in workers:
// real engine-running workers are exercised end to end by the
// smoke.amsweep ctest entry; here the workers are tiny scripts so the
// supervision logic (retry on kill, retry-budget exhaustion + manifest,
// usage fail-fast, merge) is testable in milliseconds. The pre-created
// shard store files play the part of a worker's persisted slice.
#include "measure/orchestrator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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

  /// Pre-creates shard i/n's store file holding one record, as if a worker
  /// had already persisted its slice.
  void seed_shard_store(std::size_t i, std::size_t n) {
    ResultStore store;
    store.put(key("workload-" + std::to_string(i), 1), result(0.1 + i),
              "host-fp");
    store.save(store_path(dir(), "drv", {i, n}));
  }

  /// Options for sh-script workers: the script body receives the appended
  /// shard flags as positional parameters and may ignore them.
  OrchestratorOptions opts(const std::string& script, std::size_t shards,
                           std::size_t retries) {
    OrchestratorOptions o;
    o.worker_command = {"/bin/sh", "-c", script, "worker"};
    o.results_dir = dir();
    o.driver = "drv";
    o.shards = shards;
    o.workers = 2;
    o.retries = retries;
    o.poll_seconds = 0.005;
    // sh-script stand-ins have no --emit-plan contract; probing them
    // would only add a wasted spawn (and claim test fault injections).
    o.probe_plan = false;
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

TEST_F(OrchestratorTest, RejectsUnusableConfigurations) {
  OrchestratorOptions o = opts("exit 0", 1, 0);
  o.worker_command.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 1, 0);
  o.results_dir.clear();
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 1, 0);
  o.shards = 0;
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
  o = opts("exit 0", 1, 0);
  o.workers = 0;
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
}

TEST_F(OrchestratorTest, MergesShardStoresIntoCanonicalFile) {
  seed_shard_store(0, 2);
  seed_shard_store(1, 2);
  SweepOrchestrator orch(opts("exit 0", 2, 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_TRUE(report.missing_shards.empty());
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
  // must extend that cache, never replace it with only this grid's shards.
  ResultStore prior;
  prior.put(key("earlier-grid", 3), result(0.5), "host-fp");
  prior.save(store_path(dir(), "drv"));
  seed_shard_store(0, 2);
  seed_shard_store(1, 2);
  SweepOrchestrator orch(opts("exit 0", 2, 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.merged_records, 3u);
  const auto merged = ResultStore::load(report.merged_path);
  EXPECT_TRUE(merged.has(key("earlier-grid", 3)));
  EXPECT_TRUE(merged.has(key("workload-0", 1)));
  EXPECT_TRUE(merged.has(key("workload-1", 1)));
}

TEST_F(OrchestratorTest, WorkerKilledMidShardIsRetried) {
  seed_shard_store(0, 1);
  // First attempt claims the marker and dies as if SIGKILLed mid-shard;
  // the retry finds no marker and succeeds.
  const auto marker = dir() + "/crash.marker";
  std::ofstream(marker) << "";
  SweepOrchestrator orch(
      opts("if rm " + marker + " 2>/dev/null; then kill -9 $$; fi; exit 0",
           1, 1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_TRUE(report.attempts[0].status.signaled);
  EXPECT_EQ(report.attempts[0].status.signal, 9);
  EXPECT_TRUE(report.attempts[1].status.success());
  EXPECT_EQ(report.attempts[1].attempt, 1u);
  EXPECT_NE(manifest().find("signal 9"), std::string::npos);
}

TEST_F(OrchestratorTest, ExhaustedRetryBudgetFailsAndNamesTheShard) {
  seed_shard_store(0, 2);  // shard 0 fine; shard 1's worker always dies
  // The appended flags arrive as positional params: $1=--results-dir
  // $2=<dir> $3=--shard $4=i/n $5=--worker.
  SweepOrchestrator orch(opts(
      "case \"$4\" in 0/2) exit 0 ;; *) exit 3 ;; esac", 2, 1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  ASSERT_EQ(report.missing_shards.size(), 1u);
  EXPECT_EQ(report.missing_shards[0], 1u);
  // 1 success for shard 0 + (1 + retries) failures for shard 1.
  EXPECT_EQ(report.attempts.size(), 3u);
  const auto m = manifest();
  EXPECT_NE(m.find("status\tfailed"), std::string::npos);
  EXPECT_NE(m.find("missing\t1"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

TEST_F(OrchestratorTest, UsageExitFailsFastWithoutRetry) {
  SweepOrchestrator orch(opts("exit 2", 2, 5));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.error.empty());
  // Fail-fast: nowhere near (1 + retries) * shards attempts.
  EXPECT_LE(report.attempts.size(), 2u);
  EXPECT_EQ(report.missing_shards.size(), 2u);
}

TEST_F(OrchestratorTest, SuccessfulExitWithoutStoreFileIsAFailure) {
  // Workers must persist their slice; exit 0 with no store file is a lie
  // the orchestrator catches (and retries — here until the budget ends).
  SweepOrchestrator orch(opts("exit 0", 1, 1));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_EQ(report.attempts.size(), 2u);
  EXPECT_EQ(report.missing_shards.size(), 1u);
}

TEST_F(OrchestratorTest, ReadsExecutedCountFromMetaSidecar) {
  seed_shard_store(0, 1);
  const auto store = store_path(dir(), "drv", {0, 1});
  std::ofstream(store + ".meta") << "executed 5\nplanned 9\nrecords 1\n";
  SweepOrchestrator orch(opts("exit 0", 1, 0));
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts[0].executed, 5u);
  EXPECT_EQ(report.engine_runs, 5u);
  EXPECT_NE(manifest().find("engine_runs\t5"), std::string::npos);
}

TEST_F(OrchestratorTest, StaleHeartbeatGetsWorkerKilled) {
  seed_shard_store(0, 1);
  const auto hb = store_path(dir(), "drv", {0, 1}) + ".hb";
  // The worker fakes a heartbeat that then never advances; the
  // orchestrator must kill it long before the 30 s sleep finishes.
  auto o = opts("printf '1\\t1\\n' > " + hb + "; sleep 30", 1, 0);
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
  seed_shard_store(0, 1);
  const auto hb = store_path(dir(), "drv", {0, 1}) + ".hb";
  auto o = opts("while :; do printf '1\\t1\\n' > " + hb +
                    "; sleep 0.05; done",
                1, 0);
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

TEST_F(OrchestratorTest, StaticProbeSkipsEmptyShards) {
  // A probed plan of 1 point makes shards 1 and 2 of 3 provably empty:
  // the orchestrator must not fork, supervise, or merge workers for
  // them.
  seed_shard_store(0, 3);
  auto o = opts(
      "case \"$3\" in --emit-plan) printf '#am-plan-info v1\\npoints\\t1\\n'"
      " > \"$4.tmp\" && mv \"$4.tmp\" \"$4\";; esac; exit 0",
      3, 0);
  o.probe_plan = true;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.plan_points, 1u);
  EXPECT_EQ(report.skipped_empty, 2u);
  EXPECT_EQ(report.attempts.size(), 1u);  // only shard 0 ever spawned
  EXPECT_EQ(report.merged_records, 1u);
  EXPECT_NE(manifest().find("skipped_empty\t2"), std::string::npos);
}

TEST_F(OrchestratorTest, StaticProbeFailureFallsBackToSpawningAllShards) {
  // Custom or older drivers without --emit-plan must keep working: a
  // failed probe degrades to the un-probed static schedule.
  seed_shard_store(0, 2);
  seed_shard_store(1, 2);
  auto o = opts("case \"$3\" in --emit-plan) exit 3;; esac; exit 0", 2, 0);
  o.probe_plan = true;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.plan_points, SIZE_MAX);  // never learned
  EXPECT_EQ(report.attempts.size(), 2u);
  EXPECT_NE(log.str().find("probe failed"), std::string::npos);
}

/// A /bin/sh lease worker: answers the --emit-plan probe with a 3-point
/// plan, then acknowledges every offered lease until the done offer.
/// The appended flags arrive as $1=--results-dir $2=<dir> then either
/// $3=--emit-plan $4=<file> or $3=--lease $4=<file> $5=--worker.
constexpr const char* kLeaseWorkerScript = R"sh(
case "$3" in
  --emit-plan)
    printf '#am-plan-info v1\npoints\t3\n' > "$4.tmp" && mv "$4.tmp" "$4"
    exit 0 ;;
  --lease)
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
    done ;;
esac
exit 0
)sh";

TEST_F(OrchestratorTest, LeaseModeDrainsTheQueueAndRecordsLoadStats) {
  auto o = opts(kLeaseWorkerScript, 2, 0);
  o.schedule = Schedule::kLease;
  o.probe_plan = true;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_TRUE(report.success) << log.str();
  EXPECT_EQ(report.schedule, Schedule::kLease);
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

TEST_F(OrchestratorTest, LeaseModeRequiresASuccessfulProbe) {
  auto o = opts("case \"$3\" in --emit-plan) exit 3;; esac; exit 0", 2, 0);
  o.schedule = Schedule::kLease;
  o.probe_plan = true;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.error.find("probe"), std::string::npos) << report.error;
  EXPECT_TRUE(report.attempts.empty());  // no workers ever spawned
}

TEST_F(OrchestratorTest, LeaseModeExhaustsPerPointBudgetAndNamesPoints) {
  // Workers that die holding a lease charge each leased point one
  // failure; once a point's budget is gone the sweep fails and the
  // manifest names it.
  auto o = opts(
      "case \"$3\" in --emit-plan) printf '#am-plan-info v1\\npoints\\t2\\n'"
      " > \"$4.tmp\" && mv \"$4.tmp\" \"$4\"; exit 0;; esac; exit 3",
      2, 1);
  o.schedule = Schedule::kLease;
  o.probe_plan = true;
  o.workers = 1;
  SweepOrchestrator orch(o);
  std::ostringstream log;
  const auto report = orch.run(log);
  EXPECT_FALSE(report.success) << log.str();
  EXPECT_EQ(report.missing_points.size(), 2u);
  const auto m = manifest();
  EXPECT_NE(m.find("missing_point\t0"), std::string::npos);
  EXPECT_NE(m.find("missing_point\t1"), std::string::npos);
  // No merged store may appear for an incomplete sweep.
  EXPECT_FALSE(fs::exists(store_path(dir(), "drv")));
}

/// Like kLeaseWorkerScript but with a 4-point plan, acks sized to the
/// offered batch, and a one-shot poison: the first worker to claim
/// (atomically rm) the marker dies with the retryable exit code while
/// holding its lease.
constexpr const char* kPoisonOnceLeaseWorkerScript = R"sh(
case "$3" in
  --emit-plan)
    printf '#am-plan-info v1\npoints\t4\n' > "$4.tmp" && mv "$4.tmp" "$4"
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
  auto o = opts(kPoisonOnceLeaseWorkerScript, 2, /*retries=*/2);
  o.schedule = Schedule::kLease;
  o.probe_plan = true;
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
    printf '#am-plan-info v1\npoints\t4\n' > "$4.tmp" && mv "$4.tmp" "$4"
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
  auto o = opts(kStreamingCrashLeaseWorkerScript, 1, /*retries=*/1);
  o.schedule = Schedule::kLease;
  o.probe_plan = true;
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

TEST_F(OrchestratorTest, LeaseModeRejectsCustomCommandsWithoutTheContract) {
  auto o = opts("exit 0", 1, 0);
  o.schedule = Schedule::kLease;
  o.append_worker_flags = false;
  EXPECT_THROW(SweepOrchestrator{o}, std::invalid_argument);
}

TEST_F(OrchestratorTest, WorkerWedgedBeforeFirstBeatIsKilled) {
  seed_shard_store(0, 1);
  // This worker never writes a heartbeat at all (wedged during startup,
  // before the writer thread exists). With append_worker_flags — real
  // --worker drivers beat immediately — time since spawn must trip the
  // same timeout, or the sweep would hang on the 30 s sleep.
  auto o = opts("sleep 30", 1, 0);
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

}  // namespace
}  // namespace am::measure
