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
//
// A producer that emits bursts can batch both its locking and its
// wake-ups: push_quiet() appends a whole chunk under one lock without
// signalling and reports whether a consumer sleeps; the producer then
// calls wake() once, after the burst.
//
// Items live in a Ring of blocks. pop_all() hands the consumer the whole
// chain and takes back the blocks of the consumer's previous batch, so a
// queue that carries the same bursts every cycle stops allocating once
// it has held its largest backlog.
#pragma once

#include <optional>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"

namespace sds {

/// Outcome of Queue::push_quiet().
enum class QuietPush {
  kRejected,  // closed, or a bounded queue has no room for the chunk
  kQueued,    // appended; no consumer was asleep
  kWakeOwed,  // appended while a consumer slept: call wake() later
};

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

  /// Non-blocking push of a whole chunk that signals nobody, so a burst
  /// costs one lock per chunk and no wake-ups. The chunk's items are
  /// appended in order, or none of them when the queue is closed or
  /// bounded without room for them all; either way `chunk` is left empty
  /// with its blocks kept, so the producer refills it without allocating.
  /// kWakeOwed means a consumer is blocked in a pop and stays asleep
  /// until the caller calls wake(); the items are in the queue at once,
  /// so they keep their place relative to other pushes. An empty chunk
  /// appends nothing and owes nothing.
  QuietPush push_quiet(Ring<T>& chunk) SDS_EXCLUDES(mu_) {
    QuietPush result = QuietPush::kRejected;
    {
      MutexLock lock(mu_);
      if (!closed_ &&
          (capacity_ == 0 || items_.size() + chunk.size() <= capacity_)) {
        result = sleepers_ > 0 && !chunk.empty() ? QuietPush::kWakeOwed
                                                 : QuietPush::kQueued;
        for (; !chunk.empty(); chunk.pop_front()) {
          items_.push_back(std::move(chunk.front()));
        }
      }
    }
    chunk.clear();  // a rejected chunk's items die outside the lock
    return result;
  }

  /// Wakes every consumer blocked in a pop — the deferred signal that a
  /// push_quiet() returning kWakeOwed asked for. A no-op when none is.
  void wake() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (sleepers_ > 0) not_empty_.notify_all();
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
    wait_not_empty(lock);
    return pop_locked();
  }

  /// Pop with relative timeout. Returns nullopt on timeout or closed+empty.
  std::optional<T> pop_for(Nanos timeout) SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++sleepers_;
    not_empty_.wait_for(lock, timeout, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    --sleepers_;
    return pop_locked();
  }

  /// Blocking batch pop: waits like pop(), then hands every queued item
  /// to `out` (whose previous contents are discarded) in FIFO order,
  /// so a consumer takes the lock once per batch instead of once per
  /// item. `out`'s emptied blocks go back to the queue, so passing the
  /// same ring every time keeps the pair at its high-water mark. Returns
  /// false once closed and drained.
  bool pop_all(Ring<T>& out) SDS_EXCLUDES(mu_) {
    out.clear();
    MutexLock lock(mu_);
    wait_not_empty(lock);
    if (items_.empty()) return false;
    items_.hand_over(out);
    not_full_.notify_all();
    return true;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return pop_locked();
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
  /// Blocks until an item or close() arrives, counted in `sleepers_`
  /// meanwhile so push_quiet() can tell a sleeping consumer.
  void wait_not_empty(MutexLock& lock) SDS_REQUIRES(mu_) {
    ++sleepers_;
    not_empty_.wait(lock, [&]() SDS_REQUIRES(mu_) {
      return closed_ || !items_.empty();
    });
    --sleepers_;
  }

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
  Ring<T> items_ SDS_GUARDED_BY(mu_);
  bool closed_ SDS_GUARDED_BY(mu_) = false;
  /// Consumers inside a not_empty_ wait (blocked, or woken but not yet
  /// back under the lock).
  std::size_t sleepers_ SDS_GUARDED_BY(mu_) = 0;
};

}  // namespace sds
