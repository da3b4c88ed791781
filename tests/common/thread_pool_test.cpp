#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace am {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndexSpace) {
  ThreadPool pool(8);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ChunkedParallelForCoversIndexSpaceOncePerIndex) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, hits.size(), grain,
                 [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
  }
}

TEST(ThreadPool, ChunkedParallelForHandlesDegenerateArgs) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 16, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(pool, 10, 0, [&](std::size_t) { ++count; });  // grain 0 -> 1
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&](std::size_t) { ++count; });
  parallel_for(pool, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::atomic<int>> hits(50);
    try {
      parallel_for(pool, hits.size(), grain, [&](std::size_t i) {
        ++hits[i];
        if (i == 17) throw std::runtime_error("index 17");
      });
      FAIL() << "no exception, grain=" << grain;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 17");
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // The highest failing index is the likeliest to finish first; the lowest
  // must still be the one that surfaces, on every schedule.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      parallel_for(pool, 40, [&](std::size_t i) {
        ++ran;
        if (i == 9 || i == 23 || i == 39)
          throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "9");
    }
  }
  EXPECT_EQ(ran.load(), 20 * 40);
}

TEST(ThreadPool, ReusableAfterAThrowingParallelFor) {
  ThreadPool pool(2);
  const auto always_throw = [](std::size_t) { throw std::logic_error("x"); };
  EXPECT_THROW(parallel_for(pool, 8, always_throw), std::logic_error);
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GT(pool.size(), 0u);
}

// Many producer threads racing submit() against the workers and against
// pool destruction. Primarily a TSan workload (run under
// `cmake --preset tsan`): it exercises the queue/in_flight/stop handoff
// that the AM_GUARDED_BY annotations promise is mutex-protected.
TEST(ThreadPool, ConcurrentSubmittersStress) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 250; ++i) pool.submit([&] { ++count; });
      });
    }
    for (auto& t : producers) t.join();
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1000);
    // ~pool joins workers with an empty queue here.
  }
  EXPECT_EQ(count.load(), 1000);
}

}  // namespace
}  // namespace am
