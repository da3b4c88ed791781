#pragma once
// Fixed-size thread pool with a parallel_for convenience. Bench drivers use
// this to run independent simulator configurations concurrently; the
// simulator itself is single-threaded-deterministic per configuration.
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace am {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; a throwing task calls std::terminate. Work that may
  /// throw goes through parallel_for, which catches per index.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  // written only in the constructor
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ AM_GUARDED_BY(mutex_);
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ AM_GUARDED_BY(mutex_) = 0;
  bool stop_ AM_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [0, n) across the pool's threads and waits. fn may
/// throw: every index still runs, and after the barrier the exception of
/// the lowest failing index is rethrown, so which error surfaces does not
/// depend on the pool's size or schedule.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Chunked overload: splits [0, n) into contiguous chunks of up to `grain`
/// indices and submits one task per chunk, so large grids pay one queue
/// round-trip per chunk instead of per index. fn still runs once per index,
/// in order within each chunk, with the same exception contract.
void parallel_for(ThreadPool& pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

}  // namespace am
