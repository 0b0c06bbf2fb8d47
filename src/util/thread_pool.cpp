#include "util/thread_pool.h"

#include <algorithm>
#include <latch>
#include <memory>

namespace pp::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool.worker_count() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Every task co-owns the latch, so the count_down that releases the
  // caller never touches memory the caller may already have unwound.
  const auto done =
      std::make_shared<std::latch>(static_cast<std::ptrdiff_t>(n));
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([done, &fn, i] {
      fn(i);
      done->count_down();
    });
  done->wait();
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pp::util
