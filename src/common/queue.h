// Closable bounded/unbounded MPMC queues used by transports and runtimes.
//
// A closed queue rejects pushes and drains remaining items; pop() on an
// empty closed queue returns nullopt immediately. This gives clean
// shutdown semantics without sentinel items.
//
// Lock discipline is compiler-checked: all mutable state is
// SDS_GUARDED_BY(mu_) and every condition wait uses a predicate, so a
// close() racing a blocked pop()/push() always resolves (the predicates
// observe `closed_` under the lock — see QueueShutdownTest).
#pragma once

#include <deque>
#include <optional>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sds {

template <typename T>
class Queue {
 public:
  /// capacity == 0 means unbounded.
  explicit Queue(std::size_t capacity = 0) : capacity_(capacity) {}

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  /// Blocking push. Returns false if the queue is (or becomes) closed.
  bool push(T item) SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_full_.wait(lock, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !is_full();
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool try_push(T item) SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_ || is_full()) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop. Returns nullopt once closed and drained.
  std::optional<T> pop() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_empty_.wait(lock, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    return pop_locked();
  }

  /// Pop with relative timeout. Returns nullopt on timeout or closed+empty.
  std::optional<T> pop_for(Nanos timeout) SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_empty_.wait_for(lock, timeout, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    return pop_locked();
  }

  /// Blocking batch pop: waits like pop(), then swaps every queued item
  /// into `out` (whose previous contents are discarded) in FIFO order,
  /// so a consumer takes the lock once per batch instead of once per
  /// item. Returns false once closed and drained.
  bool pop_all(std::deque<T>& out) SDS_EXCLUDES(mu_) {
    out.clear();
    MutexLock lock(mu_);
    not_empty_.wait(lock, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return false;
    out.swap(items_);
    not_full_.notify_all();
    return true;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void close() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  bool is_full() const SDS_REQUIRES(mu_) {
    return capacity_ != 0 && items_.size() >= capacity_;
  }

  std::optional<T> pop_locked() SDS_REQUIRES(mu_) {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  mutable Mutex mu_{LockRank::kQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ SDS_GUARDED_BY(mu_);
  bool closed_ SDS_GUARDED_BY(mu_) = false;
};

}  // namespace sds
