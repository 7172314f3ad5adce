// Work-stealing thread pool with a companion WaitGroup for fork/join
// phases.
//
// Used by the bench sweep runner to spread independent (scale, topology)
// configurations across cores, and available to the live runtime for
// parallel fan-out. Design: one deque per worker; a worker pops its own
// queue from the back (LIFO keeps caches warm) and steals from other
// queues' fronts when its own runs dry, so an uneven sweep (one 10,000-
// stage config next to nine small ones) still keeps every core busy.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sds {

/// Counts outstanding work; wait() blocks until the count returns to zero.
class WaitGroup {
 public:
  void add(std::size_t n = 1) SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    count_ += n;
  }

  void done() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  void wait() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.wait(lock, [&]() SDS_REQUIRES(mu_) { return count_ == 0; });
  }

 private:
  Mutex mu_{LockRank::kWaitGroup};
  CondVar cv_;
  std::size_t count_ SDS_GUARDED_BY(mu_) = 0;
};

namespace common {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns false after shutdown began. Tasks queued
  /// before shutdown always run (shutdown drains before joining).
  bool submit(Task task) SDS_EXCLUDES(sleep_mu_);

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// Every index runs exactly once even if the pool is shutting down
  /// (inline fallback). If any invocation throws, the first exception is
  /// rethrown here after all indices finish.
  ///
  /// Safe to call from inside a pool worker: nested calls run all
  /// indices inline on the calling thread instead of submitting. A
  /// worker that submitted chunks and then blocked in wait() could
  /// deadlock a small pool (every worker parked waiting on work that
  /// sits behind it in the queues) and would oversubscribe a large one.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// Nested fork/join layers use this to fall back to inline execution
  /// rather than stacking thread teams on the same cores.
  [[nodiscard]] static bool in_worker();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Stop accepting work, drain all queued tasks, join all workers.
  void shutdown() SDS_EXCLUDES(sleep_mu_);

 private:
  /// One worker's deque. The owner pops from the back; thieves take from
  /// the front, so steals grab the oldest (likely largest-remaining) work.
  struct WorkerQueue {
    Mutex mu{LockRank::kThreadPool};
    std::deque<Task> tasks SDS_GUARDED_BY(mu);
  };

  bool try_pop(std::size_t self, Task& out);
  void worker_loop(std::size_t self) SDS_EXCLUDES(sleep_mu_);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Same rank as the worker queues: the two are only ever taken in
  // separate scopes (submit reserves under sleep_mu_, releases, then
  // pushes under the queue lock), never nested.
  Mutex sleep_mu_{LockRank::kThreadPool};
  CondVar sleep_cv_;
  std::atomic<std::size_t> pending_{0};     // queued, not yet popped
  std::atomic<std::size_t> next_queue_{0};  // round-robin submit target
  std::atomic<bool> accepting_{true};
  std::atomic<bool> joining_{false};
};

}  // namespace common

using common::ThreadPool;

}  // namespace sds
