// SweepDaemon serving-path coverage with the daemon running in-thread:
// protocol fault injection against a live daemon (garbage, truncation,
// wrong version, oversized prefixes — each failing exactly one
// connection while other tenants' queued plans survive), queue-file
// persistence and resume across daemon generations, waiter release by
// cancel and by drain, the fair-share grant bound, and the worker half
// (run_daemon_worker) executing real offered leases bit-identically to
// a direct serial run. Worker *processes* under supervision are
// exercised with /bin/sh stand-ins (usage exits, crash loops,
// unspawnable commands); the full two-binary serving path — concurrent
// tenants, injected SIGKILL, SIGTERM drain, restart — is the
// smoke.amsweepd ctest entry (examples/smoke_amsweepd.cmake).
#include "measure/daemon.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/work_lease.hpp"

namespace am::measure {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A plan tiny enough that real engine runs finish in milliseconds:
/// one 64-element uniform workload, a baseline point and one
/// cache-storage interference point on a 1024x-scaled machine.
PlanSpec tiny_spec() {
  PlanSpec spec;
  spec.machine_scale = 1024;
  spec.seed = 7;
  spec.max_cycles = 10'000'000;
  spec.cs.buffer_bytes = 4096;
  spec.cs.batch_size = 4;
  spec.bw.buffer_bytes = 4096;
  spec.bw.num_buffers = 4;
  WorkloadWire w;
  w.kind = WorkloadWire::Kind::kSynthetic;
  w.name = "uni-64";
  w.dist = model::DistKind::kUniform;
  w.n = 64;
  w.measured_accesses = 200;
  spec.workloads.push_back(std::move(w));
  spec.points.push_back({0, Resource::kCacheStorage, 0});
  spec.points.push_back({0, Resource::kCacheStorage, 1});
  return spec;
}

/// Runs a SweepDaemon on a background thread for the lifetime of the
/// harness; drain() is the only way it stops.
struct DaemonHarness {
  SweepDaemon daemon;
  std::ostringstream log;
  DaemonReport report;
  std::thread thread;

  explicit DaemonHarness(SweepDaemonOptions opts) : daemon(std::move(opts)) {
    thread = std::thread([this] { report = daemon.run(log); });
  }

  DaemonReport drain() {
    daemon.request_drain();
    thread.join();
    return report;
  }

  ~DaemonHarness() {
    if (thread.joinable()) {
      daemon.request_drain();
      thread.join();
    }
  }
};

class SweepDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("am_sweepd_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  // Unix socket paths are length-capped (~100 bytes); keep it short.
  std::string sock() const {
    return (fs::temp_directory_path() /
            ("ams_" + std::to_string(::getpid()) + ".sock"))
        .string();
  }

  SweepDaemonOptions accept_only() {
    SweepDaemonOptions opts;
    opts.socket_path = sock();
    opts.results_dir = dir();
    opts.workers = 0;
    opts.poll_seconds = 0.005;
    return opts;
  }

  SweepDaemonOptions with_stub_worker(std::vector<std::string> command) {
    SweepDaemonOptions opts = accept_only();
    opts.workers = 1;
    opts.retries = 0;
    opts.worker_command = std::move(command);
    return opts;
  }

 private:
  fs::path dir_;
};

// --- codecs and pure components -------------------------------------------

TEST(DaemonReply_, CodecRoundTrips) {
  DaemonReply r;
  r.ok = true;
  r.retry = true;
  r.job = 42;
  r.state = JobState::kRunning;
  r.points = 17;
  r.done_points = 5;
  r.executed = 3;
  r.error = "some context";
  const auto back = parse_reply(encode_reply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ok, r.ok);
  EXPECT_EQ(back->retry, r.retry);
  EXPECT_EQ(back->job, r.job);
  EXPECT_EQ(back->state, r.state);
  EXPECT_EQ(back->points, r.points);
  EXPECT_EQ(back->done_points, r.done_points);
  EXPECT_EQ(back->executed, r.executed);
  EXPECT_EQ(back->error, r.error);
}

TEST(DaemonReply_, ErrorTextIsSanitizedToOneLine) {
  DaemonReply r;
  r.error = "line one\nline two\twith tab";
  const auto back = parse_reply(encode_reply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->error, "line one line two with tab");
}

TEST(DaemonReply_, ParserRejectsGarbageAndIgnoresUnknownKeys) {
  EXPECT_FALSE(parse_reply("").has_value());
  EXPECT_FALSE(parse_reply("#am-reply v2\nok\t1\n").has_value());
  EXPECT_FALSE(parse_reply("#am-reply v1\nstate\tqueued\n").has_value());
  EXPECT_FALSE(parse_reply("#am-reply v1\nok\t2\n").has_value());
  const auto ok =
      parse_reply("#am-reply v1\nok\t1\nfuture_field\twhatever\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
}

TEST(FairShare, GrantGapIsBoundedUnderRandomLoads) {
  std::mt19937 rng(20140519);
  for (int trial = 0; trial < 50; ++trial) {
    FairShareScheduler sched;
    std::map<std::uint64_t, std::size_t> work;
    const std::size_t n_jobs = 2 + rng() % 5;
    for (std::uint64_t j = 1; j <= n_jobs; ++j) {
      work[j] = 1 + rng() % 20;  // wildly uneven plan sizes
      sched.add(j);
    }
    std::vector<std::uint64_t> grants;
    std::uint64_t next_id = n_jobs + 1;
    const auto has_work = [&](std::uint64_t id) { return work[id] > 0; };
    while (const auto j = sched.pick(has_work)) {
      grants.push_back(*j);
      --work[*j];
      if (rng() % 7 == 0) {  // tenants keep submitting mid-flight
        work[next_id] = 1 + rng() % 10;
        sched.add(next_id++);
      }
    }
    for (const auto& [id, remaining] : work)
      EXPECT_EQ(remaining, 0u) << "job " << id << " starved";

    // The fairness bound: between consecutive grants to a job that had
    // work the whole time (it did — it got granted again), every other
    // job is granted at most once. A big plan cannot starve a small one.
    std::map<std::uint64_t, std::size_t> last_pos;
    for (std::size_t i = 0; i < grants.size(); ++i) {
      const std::uint64_t j = grants[i];
      if (last_pos.count(j)) {
        std::map<std::uint64_t, std::size_t> between;
        for (std::size_t k = last_pos[j] + 1; k < i; ++k)
          EXPECT_LE(++between[grants[k]], 1u)
              << "job " << grants[k] << " granted twice between grants "
              << last_pos[j] << " and " << i << " of job " << j;
      }
      last_pos[j] = i;
    }
  }
}

TEST(FairShare, RemoveDropsJob) {
  FairShareScheduler sched;
  sched.add(1);
  sched.add(2);
  sched.remove(1);
  const auto pick = sched.pick([](std::uint64_t) { return true; });
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
  sched.remove(2);
  EXPECT_FALSE(sched.pick([](std::uint64_t) { return true; }).has_value());
}

TEST(Namespaces, ValidationIsStrict) {
  EXPECT_TRUE(SweepDaemon::valid_namespace("alice"));
  EXPECT_TRUE(SweepDaemon::valid_namespace("team-7_B"));
  EXPECT_FALSE(SweepDaemon::valid_namespace(""));
  EXPECT_FALSE(SweepDaemon::valid_namespace("has space"));
  EXPECT_FALSE(SweepDaemon::valid_namespace("dot.dot"));
  EXPECT_FALSE(SweepDaemon::valid_namespace("../escape"));
  EXPECT_FALSE(SweepDaemon::valid_namespace(std::string(65, 'a')));
}

// --- live daemon: protocol and tenancy ------------------------------------

TEST_F(SweepDaemonTest, FaultInjectionFailsOneConnectionNotOtherTenants) {
  DaemonHarness harness(accept_only());
  const std::string plan = serialize_plan_spec(tiny_spec());

  // Two tenants queue real plans first.
  auto alice = DaemonClient::connect_unix(sock());
  const auto job_a = alice.submit("alice", plan);
  ASSERT_TRUE(job_a.ok) << job_a.error;
  EXPECT_EQ(job_a.job, 1u);
  EXPECT_EQ(job_a.points, 2u);
  auto bob = DaemonClient::connect_unix(sock());
  const auto job_b = bob.submit("bob", plan);
  ASSERT_TRUE(job_b.ok) << job_b.error;
  EXPECT_EQ(job_b.job, 2u);

  // Hostile connection 1: garbage bytes. The daemon must answer with a
  // clean error reply and fail only that connection.
  {
    auto evil = DaemonClient::connect_unix(sock());
    evil.send_raw("complete nonsense, definitely not a frame header....");
    const Frame reply = read_frame(evil.socket());
    const auto parsed = parse_reply(reply.payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok);
    EXPECT_NE(parsed->error.find("magic"), std::string::npos)
        << parsed->error;
  }

  // Hostile connection 2: wrong protocol version.
  {
    std::string wire = encode_frame({kFrameStatus, "job\t1"});
    wire[4] = 9;
    auto evil = DaemonClient::connect_unix(sock());
    evil.send_raw(wire);
    const auto parsed = parse_reply(read_frame(evil.socket()).payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok);
    EXPECT_NE(parsed->error.find("version"), std::string::npos)
        << parsed->error;
  }

  // Hostile connection 3: oversized length prefix (a 1 TiB "payload").
  {
    std::string wire = encode_frame({kFrameSubmit, ""});
    for (std::size_t i = 0; i < 8; ++i) wire[8 + i] = 0;
    wire[8 + 5] = 1;
    auto evil = DaemonClient::connect_unix(sock());
    evil.send_raw(wire);
    const auto parsed = parse_reply(read_frame(evil.socket()).payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok);
    EXPECT_NE(parsed->error.find("oversized"), std::string::npos)
        << parsed->error;
  }

  // Hostile connection 4: a real submit frame truncated mid-payload,
  // then a hangup — the daemon must treat EOF-with-pending-bytes as a
  // protocol error, not wait forever for the rest.
  {
    const std::string whole = encode_frame({kFrameSubmit, "ns\tmallory\n"});
    auto evil = DaemonClient::connect_unix(sock());
    evil.send_raw(whole.substr(0, whole.size() - 4));
    evil.socket().close();
  }

  // Unknown frame types are a protocol error too.
  {
    auto evil = DaemonClient::connect_unix(sock());
    evil.send_raw(encode_frame({999, "?"}));
    const auto parsed = parse_reply(read_frame(evil.socket()).payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok);
  }

  // Malformed *payloads* on a good connection are per-request errors
  // that leave the connection usable.
  auto carol = DaemonClient::connect_unix(sock());
  EXPECT_FALSE(carol.submit("not a valid ns!", plan).ok);
  EXPECT_FALSE(carol.submit("carol", "#broken plan\n").ok);
  EXPECT_FALSE(carol.status(999).ok);
  const auto job_c = carol.submit("carol", plan);
  EXPECT_TRUE(job_c.ok) << job_c.error;

  // Both original tenants' jobs rode out all of it, still queued.
  EXPECT_EQ(alice.status(job_a.job).state, JobState::kQueued);
  EXPECT_EQ(bob.status(job_b.job).state, JobState::kQueued);

  // Cancel works and is terminal: a second cancel is an error.
  EXPECT_EQ(carol.cancel(job_c.job).state, JobState::kCancelled);
  EXPECT_FALSE(carol.cancel(job_c.job).ok);

  const auto report = harness.drain();
  EXPECT_TRUE(report.clean_exit);
  EXPECT_EQ(report.jobs_accepted, 3u);
  EXPECT_GE(report.protocol_errors, 5u);
  EXPECT_TRUE(fs::exists(SweepDaemon::queue_path(dir())));
  EXPECT_TRUE(fs::exists(SweepDaemon::manifest_path(dir())));
  EXPECT_FALSE(fs::exists(sock())) << "drain must remove the socket file";
}

TEST_F(SweepDaemonTest, QueueSurvivesRestartsAndSubmittersGetRetryLater) {
  const std::string plan = serialize_plan_spec(tiny_spec());
  {
    DaemonHarness gen1(accept_only());
    auto client = DaemonClient::connect_unix(sock());
    ASSERT_TRUE(client.submit("alice", plan).ok);
    ASSERT_TRUE(client.submit("bob", plan).ok);
    const auto report = gen1.drain();
    EXPECT_TRUE(report.clean_exit);
  }
  {
    DaemonHarness gen2(accept_only());
    auto client = DaemonClient::connect_unix(sock());
    // Resumed jobs keep their ids and queue states...
    EXPECT_EQ(client.status(1).state, JobState::kQueued);
    EXPECT_EQ(client.status(2).state, JobState::kQueued);
    // ...and id allocation continues, never reuses.
    const auto fresh = client.submit("carol", plan);
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(fresh.job, 3u);

    // A submitter racing the drain gets an explicit retry-later.
    gen2.daemon.request_drain();
    DaemonReply racing;
    for (int i = 0; i < 200; ++i) {
      racing = client.submit("dave", plan);
      if (racing.retry) break;
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(racing.retry) << "drain must answer submitters retry-later";
    EXPECT_FALSE(racing.ok);
    gen2.drain();
  }
}

TEST_F(SweepDaemonTest, WaitIsReleasedByCancel) {
  DaemonHarness harness(accept_only());
  auto client = DaemonClient::connect_unix(sock());
  const auto job = client.submit("alice", serialize_plan_spec(tiny_spec()));
  ASSERT_TRUE(job.ok);

  std::thread canceller([&] {
    std::this_thread::sleep_for(100ms);
    auto other = DaemonClient::connect_unix(sock());
    other.cancel(job.job);
  });
  const auto reply = client.wait(job.job, 30.0);
  canceller.join();
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.state, JobState::kCancelled);
  harness.drain();
}

TEST_F(SweepDaemonTest, DrainAnswersWaitersRetryLater) {
  DaemonHarness harness(accept_only());
  auto client = DaemonClient::connect_unix(sock());
  const auto job = client.submit("alice", serialize_plan_spec(tiny_spec()));
  ASSERT_TRUE(job.ok);

  std::thread drainer([&] {
    std::this_thread::sleep_for(100ms);
    harness.daemon.request_drain();
  });
  const auto reply = client.wait(job.job, 30.0);
  drainer.join();
  EXPECT_TRUE(reply.retry);
  EXPECT_FALSE(reply.ok);
  const auto report = harness.drain();
  EXPECT_TRUE(report.clean_exit);
  // The un-run job survives for the next daemon generation.
  EXPECT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].state, JobState::kQueued);
}

// --- the worker half -------------------------------------------------------

TEST_F(SweepDaemonTest, WorkerExecutesOffersBitIdenticallyAndReusesCache) {
  const PlanSpec spec = tiny_spec();
  const std::string plan_file = dir() + "/job1.plan";
  std::ofstream(plan_file) << serialize_plan_spec(spec);
  const std::string lease = dir() + "/wrk0.lease";

  DaemonWorkerOptions wopts;
  wopts.lease_path = lease;
  wopts.poll_seconds = 0.002;
  wopts.idle_timeout_seconds = 60.0;
  std::ostringstream wlog;
  DaemonWorkerReport wreport;
  std::thread worker(
      [&] { wreport = run_daemon_worker(wopts, wlog); });

  const auto offer_and_await = [&](std::uint64_t id,
                                   std::vector<std::size_t> points) {
    LeaseOffer off;
    off.lease.id = id;
    off.lease.points = std::move(points);
    off.plan_path = plan_file;
    off.store_path = lease_store_path(lease);
    write_lease_offer(lease, off);
    for (int i = 0; i < 6000; ++i) {
      if (const auto acks = read_lease_acks(lease_ack_path(lease)))
        for (const LeaseAck& ack : acks->acks)
          if (ack.lease_id == id) return ack;
      std::this_thread::sleep_for(5ms);
    }
    ADD_FAILURE() << "no ack for lease " << id << "; worker log:\n"
                  << wlog.str();
    return LeaseAck{};
  };

  const LeaseAck first = offer_and_await(1, {0, 1});
  EXPECT_EQ(first.points, 2u);
  EXPECT_EQ(first.executed, 2u) << "fresh points must actually run";

  // Re-offering a covered point must be a pure cache hit.
  const LeaseAck second = offer_and_await(2, {0});
  EXPECT_EQ(second.points, 1u);
  EXPECT_EQ(second.executed, 0u) << "cached point must not re-run";

  LeaseOffer done;
  done.lease.id = 3;
  done.done = true;
  write_lease_offer(lease, done);
  worker.join();
  EXPECT_EQ(wreport.leases, 2u);
  EXPECT_EQ(wreport.points, 3u);
  EXPECT_EQ(wreport.executed, 2u);

  // The worker's persisted store is byte-identical to a direct serial
  // run of the same plan — the foundation of the namespace-purity
  // guarantee the daemon builds on top.
  ResultStore direct;
  const ExperimentPlan plan = build_plan(spec);
  make_runner(spec).run_points(plan, nullptr, &direct, {0, 1});
  const std::string direct_path = dir() + "/direct.tsv";
  direct.save(direct_path);
  EXPECT_EQ(read_file(lease_store_path(lease)), read_file(direct_path));
}

TEST_F(SweepDaemonTest, WorkerRejectsOffersWithoutPlanPaths) {
  const std::string lease = dir() + "/wrk0.lease";
  LeaseOffer off;
  off.lease.id = 1;
  off.lease.points = {0};
  write_lease_offer(lease, off);  // no plan/store paths
  DaemonWorkerOptions wopts;
  wopts.lease_path = lease;
  wopts.poll_seconds = 0.002;
  std::ostringstream wlog;
  EXPECT_THROW(run_daemon_worker(wopts, wlog), std::invalid_argument);
}

TEST_F(SweepDaemonTest, WorkerGivesUpWhenOrphaned) {
  DaemonWorkerOptions wopts;
  wopts.lease_path = dir() + "/wrk0.lease";  // nobody ever offers
  wopts.poll_seconds = 0.002;
  wopts.idle_timeout_seconds = 0.05;
  std::ostringstream wlog;
  EXPECT_THROW(run_daemon_worker(wopts, wlog), std::runtime_error);
}

// --- worker-process supervision (stub workers) -----------------------------

TEST_F(SweepDaemonTest, UsageWorkerExitFailsOnlyTheLeasedJob) {
  DaemonHarness harness(with_stub_worker({"/bin/sh", "-c", "exit 2"}));
  auto client = DaemonClient::connect_unix(sock());
  const auto job = client.submit("alice", serialize_plan_spec(tiny_spec()));
  ASSERT_TRUE(job.ok);
  const auto reply = client.wait(job.job, 30.0);
  EXPECT_EQ(reply.state, JobState::kFailed);
  EXPECT_NE(reply.error.find("rejected"), std::string::npos) << reply.error;

  // The daemon itself keeps serving other tenants.
  const auto after = client.submit("bob", serialize_plan_spec(tiny_spec()));
  EXPECT_TRUE(after.ok);
  const auto report = harness.drain();
  EXPECT_TRUE(report.clean_exit);
  EXPECT_EQ(report.jobs_failed, 2u);  // bob's job meets the same stub
}

TEST_F(SweepDaemonTest, CrashingWorkerExhaustsTheRetryBudget) {
  // retries=0: the first crash while holding the lease must fail the
  // job with a budget-exhaustion error, not hang or crash the daemon.
  DaemonHarness harness(with_stub_worker({"/bin/sh", "-c", "exit 3"}));
  auto client = DaemonClient::connect_unix(sock());
  const auto job = client.submit("alice", serialize_plan_spec(tiny_spec()));
  ASSERT_TRUE(job.ok);
  const auto reply = client.wait(job.job, 30.0);
  EXPECT_EQ(reply.state, JobState::kFailed);
  EXPECT_NE(reply.error.find("retry budget"), std::string::npos)
      << reply.error;
  EXPECT_TRUE(harness.drain().clean_exit);
}

TEST_F(SweepDaemonTest, UnspawnableWorkerCommandFailsJobNotDaemon) {
  DaemonHarness harness(
      with_stub_worker({dir() + "/no-such-worker-binary"}));
  auto client = DaemonClient::connect_unix(sock());
  const auto job = client.submit("alice", serialize_plan_spec(tiny_spec()));
  ASSERT_TRUE(job.ok);
  const auto reply = client.wait(job.job, 30.0);
  EXPECT_EQ(reply.state, JobState::kFailed);
  const auto report = harness.drain();
  EXPECT_TRUE(report.clean_exit) << report.error;
}

}  // namespace
}  // namespace am::measure
