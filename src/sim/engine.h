// Discrete-event simulation engine: a time-ordered event queue with a
// simulated clock. Deterministic — ties are broken by insertion order.
//
// The simulator exists because the paper's experiments need up to 10,000
// compute nodes; we model the cluster's time behaviour while running the
// *real* controller logic (core::GlobalControllerCore etc.) for every
// decision, so simulated experiments exercise the same code as live ones.
//
// Event core (allocation-lean fast path):
//   * Closures are placement-new'd once into SmallFn cells of a stable
//     slab (deque + free-list): constructed in place, executed in place,
//     never relocated, and no per-event heap allocation for the capture
//     sizes the cycle driver produces.
//   * The time-ordered structures shuffle only 24-byte POD keys
//     {at, seq, slot}, so ordering work is cheap POD moves instead of
//     type-erased closure relocations.
//   * Near-future keys live in a calendar time wheel (kWheelBuckets
//     buckets of 2^kBucketShift ns each). Scheduling is O(1): append to
//     the destination bucket's vector. A bitmap over buckets lets the
//     cursor skip empty slots in O(words).
//   * When the cursor reaches a bucket, its keys are sorted once by
//     exact (time, seq) and consumed linearly; keys scheduled into the
//     already-sorted window go to a (normally tiny) incoming min-heap
//     merged on the fly. Execution order is identical to a single
//     global priority queue — bucket boundaries never reorder events.
//   * Keys beyond the wheel horizon overflow to a min-heap and migrate
//     into the wheel as the cursor advances (amortized O(1) per event).
//   * schedule_batch() lets fan-out bursts (one collect to N stages)
//     enter the wheel through one call with scratch-vector reuse.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/small_fn.h"

namespace sds::sim {

class Engine {
 public:
  using EventFn = SmallFn;

  /// A (time, closure) pair for schedule_batch bursts.
  struct TimedEvent {
    Nanos at;
    EventFn fn;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (clamped to now).
  /// Accepts any void() callable; the closure is constructed directly in
  /// its slab cell (no intermediate EventFn when given a raw lambda).
  template <typename F>
  void schedule_at(Nanos at, F&& fn) {
    insert(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Schedule `fn` after a simulated delay.
  template <typename F>
  void schedule_in(Nanos delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule a burst in one call; events keep their relative order (the
  /// i-th entry gets the i-th sequence number, exactly as if schedule_at
  /// had been called in a loop). `batch` is left empty with its capacity
  /// intact so callers can reuse it as a scratch buffer.
  void schedule_batch(std::vector<TimedEvent>& batch) {
    for (auto& ev : batch) {
      insert(ev.at < now_ ? now_ : ev.at, std::move(ev.fn));
    }
    batch.clear();
  }

  /// Execute events with timestamps strictly earlier than `bound`.
  /// Unlike run_until, the clock is left at the last executed event: the
  /// experiment driver samples at fixed instants between events, and a
  /// sample must not move the clock.
  void run_before(Nanos bound) {
    while (prepare_next() && next_key().at < bound) step();
  }

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // The step/insert/alloc_slot core is allocation-lean by construction
  // (slab reuse, POD key shuffling); tools/sdscheck keeps it that way.
  // sdscheck: hotpath

  /// Execute the next event; returns false when the queue is empty.
  bool step() {
    if (!prepare_next()) return false;
    const Key key = pop_min();
    // The sorted window tells us which closures run next — warm their
    // slab cells while the current closure executes. (A global heap
    // cannot do this: its next event is unknown until the sift ends.)
    prefetch_upcoming();
    --pending_;
    now_ = key.at;
    ++executed_;
    // Run the closure in place: deque cells are address-stable, so events
    // this closure schedules (which may grow the slab) cannot move it.
    slab_[key.slot]();
    slab_[key.slot].reset();  // release captures promptly
    free_slots_.push_back(key.slot);
    return true;
  }

  /// Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run events with timestamps <= `deadline`; the clock ends at
  /// `deadline` even if the queue drained earlier.
  void run_until(Nanos deadline) {
    while (prepare_next() && next_key().at <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  /// POD ordering key; `slot` indexes the closure's slab cell.
  struct Key {
    Nanos at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// seq values are unique, so (at, seq) is a total order and FIFO among
  /// equal timestamps.
  [[nodiscard]] static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// Comparator for std::push_heap/pop_heap min-heaps.
  struct Later {
    bool operator()(const Key& a, const Key& b) const { return earlier(b, a); }
  };

  // 4096 buckets x 2.048 us = an 8.4 ms horizon, matched to the event
  // spacing the control-cycle driver produces (microseconds); coarser
  // timers (cycle periods, samplers) take the overflow heap.
  static constexpr int kBucketShift = 11;  // 2048 ns per bucket
  static constexpr std::size_t kWheelBuckets = 4096;
  static constexpr std::uint64_t kBucketMask = kWheelBuckets - 1;
  static constexpr std::size_t kBitmapWords = kWheelBuckets / 64;

  [[nodiscard]] static std::uint64_t bucket_of(Nanos at) {
    return static_cast<std::uint64_t>(at.count()) >> kBucketShift;
  }

  [[nodiscard]] Nanos active_end() const {
    return Nanos{static_cast<std::int64_t>((cursor_ + 1) << kBucketShift)};
  }

  [[nodiscard]] Nanos horizon_end() const {
    return Nanos{static_cast<std::int64_t>((cursor_ + kWheelBuckets)
                                           << kBucketShift)};
  }

  [[nodiscard]] bool active_drained() const {
    return active_idx_ >= active_.size() && incoming_.empty();
  }

  /// Park `fn` in a slab cell (reusing a freed one when possible) and
  /// return its index. Cells are only written here and in step(), so a
  /// cell is never reassigned while its closure is pending or running.
  template <typename F>
  std::uint32_t alloc_slot(F&& fn) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot].emplace(std::forward<F>(fn));
      return slot;
    }
    slab_.emplace_back(std::forward<F>(fn));
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  template <typename F>
  void insert(Nanos at, F&& fn) {
    ++pending_;
    const Key key{at, next_seq_++, alloc_slot(std::forward<F>(fn))};
    if (at < active_end()) {
      // Lands inside the already-sorted window: merge via the incoming
      // heap (normally a handful of short-delay events).
      incoming_.push_back(key);
      std::push_heap(incoming_.begin(), incoming_.end(), Later{});
      return;
    }
    if (at < horizon_end()) {
      wheel_insert(key);
      return;
    }
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }

  void wheel_insert(Key key) {
    const std::uint64_t slot = bucket_of(key.at) & kBucketMask;
    wheel_[slot].push_back(key);
    bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++wheel_count_;
  }
  // sdscheck: end-hotpath

  /// The next key in execution order. Precondition: prepare_next() true.
  [[nodiscard]] const Key& next_key() const {
    if (!incoming_.empty() && (active_idx_ >= active_.size() ||
                               earlier(incoming_.front(), active_[active_idx_]))) {
      return incoming_.front();
    }
    return active_[active_idx_];
  }

  /// Pop the next key in execution order. Precondition: prepare_next().
  Key pop_min() {
    if (!incoming_.empty() && (active_idx_ >= active_.size() ||
                               earlier(incoming_.front(), active_[active_idx_]))) {
      std::pop_heap(incoming_.begin(), incoming_.end(), Later{});
      const Key key = incoming_.back();
      incoming_.pop_back();
      return key;
    }
    return active_[active_idx_++];
  }

  /// Hint the cache about the slab cells of the next few sorted-window
  /// keys; by the time they execute, their captures are resident.
  void prefetch_upcoming() const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t look = active_idx_ + 3;
    if (look < active_.size()) {
      const auto* cell =
          reinterpret_cast<const unsigned char*>(&slab_[active_[look].slot]);
      __builtin_prefetch(cell);       // closure storage
      __builtin_prefetch(cell + 64);  // ops pointer (read first by invoke)
    }
#endif
  }

  /// Advance the cursor until the active window holds the next runnable
  /// event. Moves keys between containers only — never executes anything
  /// — so it is safe to call from run_until peeks.
  bool prepare_next() {
    while (active_drained()) {
      if (pending_ == 0) return false;
      if (wheel_count_ == 0) {
        // Everything pending is beyond the horizon: rebase the (empty)
        // wheel at the earliest overflow event instead of scanning.
        cursor_ = std::max(cursor_ + 1, bucket_of(overflow_.front().at));
      } else if (!seek_occupied_bucket()) {
        return false;  // unreachable while wheel_count_ > 0
      }
      drain_overflow();
      refill_active();
    }
    return true;
  }

  /// Move the cursor to the next occupied wheel bucket (bitmap scan).
  bool seek_occupied_bucket() {
    for (std::uint64_t probe = cursor_ + 1; probe <= cursor_ + kWheelBuckets;
         /* advanced below */) {
      const std::uint64_t slot = probe & kBucketMask;
      const std::uint64_t word = bitmap_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        cursor_ = probe + static_cast<std::uint64_t>(std::countr_zero(word));
        return true;
      }
      probe += 64 - (slot & 63);  // next bitmap word boundary
    }
    return false;
  }

  /// Migrate overflow keys that now fall inside the wheel horizon.
  void drain_overflow() {
    const Nanos end = horizon_end();
    while (!overflow_.empty() && overflow_.front().at < end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      const Key key = overflow_.back();
      overflow_.pop_back();
      if (key.at < active_end()) {
        // The rebased cursor's own bucket belongs to the active window.
        incoming_.push_back(key);
        std::push_heap(incoming_.begin(), incoming_.end(), Later{});
      } else {
        wheel_insert(key);
      }
    }
  }

  /// Take the cursor bucket's keys as the active window, sorted once by
  /// exact (time, seq) and then consumed linearly. Only called when the
  /// previous window is fully drained (prepare_next loop condition), so
  /// swapping out the consumed vector is safe — and recycles capacity
  /// back into the bucket.
  void refill_active() {
    const std::uint64_t slot = cursor_ & kBucketMask;
    auto& bucket = wheel_[slot];
    if (bucket.empty()) return;
    wheel_count_ -= bucket.size();
    bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    active_.clear();
    active_.swap(bucket);
    active_idx_ = 0;
    std::sort(active_.begin(), active_.end(), earlier);
  }

  Nanos now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  /// Closure cells; deque for address stability (executing closures and
  /// slab growth never relocate a pending cell).
  std::deque<EventFn> slab_;
  std::vector<std::uint32_t> free_slots_;

  /// Absolute bucket number under the cursor; events with this bucket
  /// number (or clamped into it) form the active window.
  std::uint64_t cursor_ = 0;
  std::vector<Key> active_;    // sorted ascending; consumed via active_idx_
  std::size_t active_idx_ = 0;
  std::vector<Key> incoming_;  // min-heap: keys scheduled into the window
  std::array<std::vector<Key>, kWheelBuckets> wheel_;
  std::array<std::uint64_t, kBitmapWords> bitmap_{};
  std::size_t wheel_count_ = 0;
  std::vector<Key> overflow_;  // min-heap on (at, seq), beyond horizon
};

}  // namespace sds::sim
