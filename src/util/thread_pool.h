// A small fixed-size thread pool with a blocking task queue and a
// parallel_for helper.  parallel_for completes per call: it waits for its
// own tasks, never for the pool to go idle, so concurrent callers and
// unrelated long-running tasks cannot hold up its return.  On
// single-worker pools it degrades to serial execution on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pp::util {

class ThreadPool {
 public:
  /// `workers == 0` picks hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Enqueue a task; tasks must not throw (exceptions terminate).
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Run `fn(i)` for every i in [0, n), each call as its own pool task, and
/// return once all n calls have finished.  Completion is tracked per call,
/// never pool-wide: the caller waits for its own tasks only (they queue
/// behind earlier tasks like any other), and the last of them touches
/// nothing of the caller's after the caller may have returned.  Callers
/// size n (one index per shard); with n == 1 or a single-worker pool the
/// calls run in order on the caller.  `fn` must not throw.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Process-wide default pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace pp::util
