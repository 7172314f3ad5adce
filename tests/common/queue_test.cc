#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace sds {
namespace {

/// Spins until `pred` holds; false after a 10 s deadline, so a lost
/// wake-up fails the test instead of hanging it.
template <typename Pred>
bool spin_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A drained batch's items, front to back.
std::vector<int> items(const Ring<int>& batch) {
  return {batch.begin(), batch.end()};
}

/// A quiet push of a one-item chunk.
QuietPush push_quiet_one(Queue<int>& q, int item) {
  Ring<int> chunk;
  chunk.push_back(std::move(item));
  return q.push_quiet(chunk);
}

/// A chunk holding `count` consecutive items from `first`.
void fill(Ring<int>& chunk, int first, int count) {
  for (int i = 0; i < count; ++i) chunk.push_back(first + i);
}

TEST(QueueTest, PushPopSingleThread) {
  Queue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
}

TEST(QueueTest, PopAllTakesEverythingInOrder) {
  Queue<int> q;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  Ring<int> batch;
  batch.push_back(42);  // stale contents are discarded
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.push(5));
  q.close();
  ASSERT_TRUE(q.pop_all(batch));  // a closed queue still drains
  EXPECT_EQ(items(batch), std::vector<int>{5});
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(QueueTest, PopAllFreesRoomInBoundedQueue) {
  Queue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks until the batch pop frees room
  });
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), (std::vector<int>{1, 2}));
  producer.join();
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), std::vector<int>{3});
}

// The queue's ring holds items in blocks of 64; a block the front has
// emptied is reused at the back. These cases cross those wrap points.
constexpr int kBlock = 64;

TEST(QueueTest, PushAndPopAcrossTheWrapPoint) {
  Queue<int> q;
  int next_in = 0;
  int next_out = 0;
  // A backlog of 50 rolls through the blocks 20 times.
  for (int round = 0; round < 20 * kBlock; ++round) {
    while (next_in - next_out < 50) ASSERT_TRUE(q.push(next_in++));
    ASSERT_EQ(q.pop(), next_out++);
  }
  EXPECT_EQ(q.size(), 49u);
}

TEST(QueueTest, PopAllAfterAWrap) {
  Queue<int> q;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 70; ++i) ASSERT_EQ(q.try_pop(), i);  // front in block 2
  for (int i = 100; i < 200; ++i) ASSERT_TRUE(q.push(i));  // reuses block 1
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  std::vector<int> expected;
  for (int i = 70; i < 200; ++i) expected.push_back(i);
  EXPECT_EQ(items(batch), expected);
  EXPECT_EQ(q.size(), 0u);
  // The batch's blocks come back to the queue and carry the next round.
  for (int i = 200; i < 400; ++i) ASSERT_TRUE(q.push(i));
  ASSERT_TRUE(q.pop_all(batch));
  expected.clear();
  for (int i = 200; i < 400; ++i) expected.push_back(i);
  EXPECT_EQ(items(batch), expected);
}

TEST(QueueTest, GrowthWhileWrapped) {
  Queue<int> q;
  int next_in = 0;
  int next_out = 0;
  for (; next_in < 3 * kBlock / 2; ++next_in) ASSERT_TRUE(q.push(next_in));
  for (; next_out < kBlock + 10; ++next_out) ASSERT_EQ(q.pop(), next_out);
  // The front sits mid-block and the emptied block is free; a burst far
  // past the blocks in hand adds new ones behind the wrapped tail.
  for (int i = 0; i < 10 * kBlock; ++i) ASSERT_TRUE(q.push(next_in++));
  while (next_out < next_in) ASSERT_EQ(q.try_pop(), next_out++);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(QueueTest, BoundedFullAndCloseAcrossWraps) {
  Queue<int> q(5);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 3 * kBlock; ++round) {
    while (q.try_push(next_in)) ++next_in;  // fills to the bound
    ASSERT_EQ(q.size(), 5u);
    EXPECT_EQ(push_quiet_one(q, next_in), QuietPush::kRejected);
    ASSERT_EQ(q.pop(), next_out++);
  }
  q.close();
  EXPECT_FALSE(q.push(next_in));
  EXPECT_FALSE(q.try_push(next_in));
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));  // a closed queue still drains, in order
  std::vector<int> expected;
  for (int i = next_out; i < next_in; ++i) expected.push_back(i);
  EXPECT_EQ(items(batch), expected);
  EXPECT_FALSE(q.pop_all(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(QueueTest, TryPopEmptyReturnsNullopt) {
  Queue<int> q;
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(QueueTest, PopForTimesOut) {
  Queue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_for(millis(30)), std::nullopt);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(QueueTest, BoundedTryPushFailsWhenFull) {
  Queue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.try_pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(QueueTest, CloseRejectsPushAndDrains) {
  Queue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1);  // drains existing items
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // then returns nullopt
}

TEST(QueueTest, CloseWakesBlockedPop) {
  Queue<int> q;
  std::thread t([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  t.join();
}

TEST(QueueTest, CloseWakesBlockedPush) {
  Queue<int> q(1);
  q.push(1);
  std::thread t([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  t.join();
}

TEST(QueueTest, MoveOnlyItems) {
  Queue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(9));
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 9);
}

TEST(QueueTest, MpmcStressPreservesAllItems) {
  Queue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5'000;

  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        sum.fetch_add(*item);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = kProducers; c < kProducers + kConsumers; ++c) threads[c].join();

  const long long total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

TEST(QueueTest, QuietPushWithoutSleeperOwesNothing) {
  Queue<int> q;
  EXPECT_EQ(push_quiet_one(q, 1), QuietPush::kQueued);
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(push_quiet_one(q, 3), QuietPush::kQueued);
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), (std::vector<int>{1, 2, 3}));  // quiet pushes keep order
  q.wake();  // nobody asleep: a no-op
}

TEST(QueueTest, QuietPushRejectedWhenClosedOrFull) {
  Queue<int> bounded(1);
  EXPECT_EQ(push_quiet_one(bounded, 1), QuietPush::kQueued);
  EXPECT_EQ(push_quiet_one(bounded, 2), QuietPush::kRejected);
  bounded.close();
  EXPECT_EQ(push_quiet_one(bounded, 3), QuietPush::kRejected);
  EXPECT_EQ(bounded.pop(), 1);
  EXPECT_EQ(bounded.pop(), std::nullopt);
}

TEST(QueueTest, QuietPushLeavesSleeperAsleepUntilWake) {
  Queue<int> q;
  std::atomic<int> taken{0};
  std::thread consumer([&] {
    Ring<int> batch;
    while (q.pop_all(batch)) {
      taken.fetch_add(static_cast<int>(batch.size()));
    }
  });
  // Push quietly until a push finds the consumer blocked; every earlier
  // item is one the consumer was awake to take by itself.
  int pushed = 0;
  bool owed = false;
  while (!owed) {
    const QuietPush result = push_quiet_one(q, pushed++);
    EXPECT_NE(result, QuietPush::kRejected);
    owed = result == QuietPush::kWakeOwed;
    if (!owed && !spin_until([&] { return taken.load() == pushed; })) break;
  }
  EXPECT_TRUE(owed);
  // The owed item waits for wake(); the consumer was never signalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(taken.load(), pushed - 1);
  q.wake();
  EXPECT_TRUE(spin_until([&] { return taken.load() == pushed; }));
  q.close();
  consumer.join();
  EXPECT_EQ(taken.load(), pushed);
}

TEST(QueueTest, QuietBurstsFromManyProducersAllArrive) {
  // Producers batch their wake-ups as in-process delivery threads do:
  // quiet pushes, then one wake() per burst if any push owed it.
  Queue<int> q;
  constexpr int kProducers = 4;
  constexpr int kBursts = 200;
  constexpr int kPerBurst = 25;
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    Ring<int> batch;
    while (q.pop_all(batch)) {
      for (const int item : batch) sum.fetch_add(item);
      consumed.fetch_add(static_cast<int>(batch.size()));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      int next = p * kBursts * kPerBurst;
      for (int b = 0; b < kBursts; ++b) {
        bool owed = false;
        for (int i = 0; i < kPerBurst; ++i) {
          owed |= push_quiet_one(q, next++) == QuietPush::kWakeOwed;
        }
        if (owed) q.wake();
      }
    });
  }
  for (auto& t : producers) t.join();
  constexpr int kTotal = kProducers * kBursts * kPerBurst;
  // Every burst woke what it owed, so the consumer drains it all
  // before close() could wake it.
  EXPECT_TRUE(spin_until([&] { return consumed.load() == kTotal; }));
  q.close();
  consumer.join();
  EXPECT_EQ(consumed.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<long long>(kTotal) * (kTotal - 1) / 2);
}

TEST(QueueTest, QuietChunkPushOfAnEmptyChunk) {
  Queue<int> q;
  Ring<int> chunk;
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kQueued);
  EXPECT_EQ(q.size(), 0u);
  std::atomic<int> taken{0};
  std::thread consumer([&] {
    Ring<int> batch;
    while (q.pop_all(batch)) {
      taken.fetch_add(static_cast<int>(batch.size()));
    }
  });
  // Push single items until one finds the consumer blocked; it stays
  // blocked until wake(), and an empty chunk owes it nothing more.
  int pushed = 0;
  bool owed = false;
  while (!owed) {
    owed = push_quiet_one(q, pushed++) == QuietPush::kWakeOwed;
    if (!owed && !spin_until([&] { return taken.load() == pushed; })) break;
  }
  ASSERT_TRUE(owed);
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kQueued);
  EXPECT_EQ(q.size(), 1u);
  q.wake();
  EXPECT_TRUE(spin_until([&] { return taken.load() == pushed; }));
  q.close();
  consumer.join();
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kRejected);
}

TEST(QueueTest, QuietChunkPushAcrossTheWrap) {
  Queue<int> q;
  int next_in = 0;
  int next_out = 0;
  Ring<int> chunk;
  // A backlog of 50 rolls through the blocks while whole chunks of up to
  // a block and a half land across their wrap points.
  for (int round = 0; round < 20; ++round) {
    const int size = 1 + (round * 37) % (3 * kBlock / 2);
    fill(chunk, next_in, size);
    next_in += size;
    ASSERT_EQ(q.push_quiet(chunk), QuietPush::kQueued);
    EXPECT_TRUE(chunk.empty());
    while (next_in - next_out > 50) ASSERT_EQ(q.try_pop(), next_out++);
  }
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  std::vector<int> expected;
  for (int i = next_out; i < next_in; ++i) expected.push_back(i);
  EXPECT_EQ(items(batch), expected);
}

TEST(QueueTest, QuietChunkPushOnAClosedQueue) {
  Queue<int> q;
  ASSERT_TRUE(q.push(1));
  q.close();
  Ring<int> chunk;
  fill(chunk, 2, 3);
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kRejected);
  EXPECT_TRUE(chunk.empty());  // the rejected items are gone either way
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), std::vector<int>{1});
  EXPECT_FALSE(q.pop_all(batch));
}

TEST(QueueTest, QuietChunkPushOnAFullBoundedQueue) {
  Queue<int> q(5);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(i));
  Ring<int> chunk;
  fill(chunk, 3, 3);  // one more than the room left: none go in
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kRejected);
  EXPECT_TRUE(chunk.empty());
  EXPECT_EQ(q.size(), 3u);
  fill(chunk, 3, 2);  // exactly the room left
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kQueued);
  EXPECT_EQ(q.size(), 5u);
  fill(chunk, 5, 1);
  EXPECT_EQ(q.push_quiet(chunk), QuietPush::kRejected);
  Ring<int> batch;
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(items(batch), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(QueueTest, QuietChunkPushOwesASleepingConsumerOneWake) {
  Queue<int> q;
  std::atomic<int> batches{0};
  std::atomic<int> taken{0};
  std::thread consumer([&] {
    Ring<int> batch;
    while (q.pop_all(batch)) {
      batches.fetch_add(1);
      taken.fetch_add(static_cast<int>(batch.size()));
    }
  });
  // Chunks of a block each, until one finds the consumer blocked.
  Ring<int> chunk;
  int pushed = 0;
  bool owed = false;
  while (!owed) {
    fill(chunk, pushed, kBlock);
    pushed += kBlock;
    const QuietPush result = q.push_quiet(chunk);
    ASSERT_NE(result, QuietPush::kRejected);
    owed = result == QuietPush::kWakeOwed;
    if (!owed && !spin_until([&] { return taken.load() == pushed; })) break;
  }
  ASSERT_TRUE(owed);
  const int batches_before = batches.load();
  // The owed chunk waits for wake(); the consumer was never signalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(taken.load(), pushed - kBlock);
  q.wake();
  EXPECT_TRUE(spin_until([&] { return taken.load() == pushed; }));
  EXPECT_EQ(batches.load(), batches_before + 1);  // the chunk, whole
  q.close();
  consumer.join();
}

}  // namespace
}  // namespace sds
