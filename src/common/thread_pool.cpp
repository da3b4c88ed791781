#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace am {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

// CV waits below use explicit while-loops instead of the lambda-predicate
// overload: a lambda body is a separate function to clang's thread-safety
// analysis, so guarded members read inside one would need their own
// annotations. The open-coded loop keeps every guarded access lexically
// inside the MutexLock scope, where the analysis can verify it.

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (!queue_.empty() || in_flight_ != 0) cv_idle_.wait(lock.native());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(lock.native());
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      const MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for(pool, n, 1, fn);
}

void parallel_for(ThreadPool& pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  if (grain == 0) grain = 1;
  // Pool tasks must not throw, so each index parks its exception in its own
  // slot; no two tasks share a slot, and wait_idle() orders every write
  // before the scan below.
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const std::size_t end = std::min(begin + grain, n);
    pool.submit([&fn, &errors, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace am
