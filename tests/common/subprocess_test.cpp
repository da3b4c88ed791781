#include "common/subprocess.hpp"

#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace am {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("am_subprocess_test_" + name))
      .string();
}

TEST(Subprocess, ReportsExitCode) {
  auto p = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
  const auto st = p.wait();
  EXPECT_TRUE(st.success());
  EXPECT_EQ(st.code, 0);
  EXPECT_FALSE(st.signaled);

  auto q = Subprocess::spawn({"/bin/sh", "-c", "exit 7"});
  const auto st7 = q.wait();
  EXPECT_FALSE(st7.success());
  EXPECT_EQ(st7.code, 7);
  EXPECT_EQ(st7.describe(), "exit 7");
}

TEST(Subprocess, ReportsTerminatingSignal) {
  auto p = Subprocess::spawn({"/bin/sh", "-c", "kill -9 $$"});
  const auto st = p.wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.signal, SIGKILL);
  EXPECT_FALSE(st.success());
  EXPECT_NE(st.describe().find("signal 9"), std::string::npos);
}

TEST(Subprocess, KillStopsARunningChild) {
  // exec: the killed pid must be the sleeper itself. A shell that forks
  // `sleep` (dash does) would leave it orphaned holding the test's
  // stdout open for 30 s.
  auto p = Subprocess::spawn({"/bin/sh", "-c", "exec sleep 30"});
  EXPECT_TRUE(p.running());
  p.kill();
  const auto st = p.wait();
  EXPECT_TRUE(st.signaled);
  EXPECT_EQ(st.signal, SIGKILL);
}

TEST(Subprocess, PollingReapsWithoutBlocking) {
  auto p = Subprocess::spawn({"/bin/sh", "-c", "exit 3"});
  // The child exits on its own; running() must flip to false and cache
  // the status without a blocking wait().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (p.running() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(p.status().has_value());
  EXPECT_EQ(p.status()->code, 3);
}

TEST(Subprocess, RedirectsStdoutAndStderrToFile) {
  const auto log = temp_path("redirect.log");
  fs::remove(log);
  Subprocess::Options opts;
  opts.stdout_path = log;
  {
    auto p = Subprocess::spawn({"/bin/sh", "-c", "echo out; echo err 1>&2"},
                               opts);
    p.wait();
  }
  std::ifstream in(log);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("out"), std::string::npos);
  EXPECT_NE(content.find("err"), std::string::npos);

  // Append mode: a second run must not clobber the first (retry logs of
  // one shard accumulate in one file).
  {
    auto p = Subprocess::spawn({"/bin/sh", "-c", "echo again"}, opts);
    p.wait();
  }
  std::ifstream in2(log);
  std::string content2((std::istreambuf_iterator<char>(in2)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(content2.find("out"), std::string::npos);
  EXPECT_NE(content2.find("again"), std::string::npos);
  fs::remove(log);
}

TEST(Subprocess, SpawnFailureThrows) {
  EXPECT_THROW(Subprocess::spawn({}), std::runtime_error);
  EXPECT_THROW(
      Subprocess::spawn({"/nonexistent/definitely-not-a-binary-xyz"}),
      std::runtime_error);
}

TEST(Subprocess, DestructorKillsRunningChild) {
  pid_t pid = -1;
  {
    auto p = Subprocess::spawn({"/bin/sh", "-c", "exec sleep 30"});
    pid = p.pid();
    ASSERT_GT(pid, 0);
  }
  // The destructor must have killed and reaped it: signalling the pid now
  // either fails (recycled/na) or at least cannot reach our sleep child.
  // Give the kernel a moment, then assert the process is gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool gone = false;
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    gone = ::kill(pid, 0) != 0;  // ESRCH once fully reaped
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gone);
}

TEST(Subprocess, GroupKillReachesGrandchildren) {
  // A wrapper-script worker spawns the real work as a grandchild; killing
  // only the wrapper would orphan it. With new_process_group the whole
  // group dies.
  const auto pid_file = temp_path("grandchild.pid");
  fs::remove(pid_file);
  Subprocess::Options opts;
  opts.new_process_group = true;
  auto p = Subprocess::spawn(
      {"/bin/sh", "-c", "sleep 30 & echo $! > " + pid_file + "; wait"},
      opts);
  // Wait for the wrapper to report its child's pid.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!fs::exists(pid_file) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(fs::exists(pid_file));
  pid_t grandchild = -1;
  std::ifstream(pid_file) >> grandchild;
  ASSERT_GT(grandchild, 0);

  p.kill();
  EXPECT_TRUE(p.wait().signaled);
  bool gone = false;
  while (!gone && std::chrono::steady_clock::now() < deadline) {
    gone = ::kill(grandchild, 0) != 0;
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gone) << "grandchild " << grandchild
                    << " survived the group kill";
  fs::remove(pid_file);
}

TEST(Subprocess, MoveTransfersOwnership) {
  auto p = Subprocess::spawn({"/bin/sh", "-c", "exit 0"});
  const pid_t pid = p.pid();
  Subprocess q = std::move(p);
  EXPECT_EQ(p.pid(), -1);
  EXPECT_EQ(q.pid(), pid);
  EXPECT_TRUE(q.wait().success());
}

}  // namespace
}  // namespace am
