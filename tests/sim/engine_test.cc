#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace sds::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), Nanos{0});
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(millis(3), [&] { order.push_back(3); });
  engine.schedule_at(millis(1), [&] { order.push_back(1); });
  engine.schedule_at(millis(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), millis(3));
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(millis(5), [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, ScheduleInIsRelative) {
  Engine engine;
  Nanos fired{-1};
  engine.schedule_at(millis(10), [&] {
    engine.schedule_in(millis(5), [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, millis(15));
}

TEST(EngineTest, PastTimesClampToNow) {
  Engine engine;
  Nanos fired{-1};
  engine.schedule_at(millis(10), [&] {
    engine.schedule_at(millis(1), [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, millis(10));
}

TEST(EngineTest, EventsCanCascade) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule_in(micros(1), recurse);
  };
  engine.schedule_at(Nanos{0}, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.executed(), 100u);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule_at(millis(i), [&] { ++fired; });
  }
  engine.run_until(millis(5));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(engine.now(), millis(5));
  EXPECT_EQ(engine.pending(), 5u);
  engine.run();
  EXPECT_EQ(fired, 10);
}

TEST(EngineTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Engine engine;
  engine.run_until(seconds(3));
  EXPECT_EQ(engine.now(), seconds(3));
}

TEST(EngineTest, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(millis(1), [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(EngineTest, ManyEventsStress) {
  Engine engine;
  std::uint64_t sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    engine.schedule_at(micros(i % 977), [&] { ++sum; });
  }
  engine.run();
  EXPECT_EQ(sum, 100'000u);
}

// -- Calendar-wheel regressions (the rewrite must preserve the exact
// -- (time, insertion-order) execution sequence of the old global heap).

TEST(EngineTest, FarFutureEventsCrossOverflowHorizon) {
  // The wheel horizon is a few milliseconds; seconds-scale timers take
  // the overflow heap and must still run in exact time order.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(3), [&] { order.push_back(3); });
  engine.schedule_at(millis(1), [&] { order.push_back(0); });
  engine.schedule_at(seconds(1), [&] { order.push_back(1); });
  engine.schedule_at(seconds(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(engine.now(), seconds(3));
}

TEST(EngineTest, TiesBreakByInsertionOrderBeyondHorizon) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(seconds(7), [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, OverflowMigrationPreservesTiesWithWheelEvents) {
  // An overflow event and a later-scheduled wheel event with the same
  // timestamp: insertion order must still decide.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(seconds(1), [&] { order.push_back(0); });  // overflow
  engine.schedule_at(millis(999), [&] {
    // By now seconds(1) has migrated into the wheel; this tie inserts after.
    engine.schedule_at(seconds(1), [&] { order.push_back(1); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EngineTest, RandomizedOrderMatchesStableSortReference) {
  // Deterministic pseudo-random times spanning active bucket, wheel, and
  // overflow; execution order must equal a stable sort by time.
  Engine engine;
  std::vector<std::pair<std::int64_t, int>> reference;
  std::vector<int> order;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Mix of ns-scale (active), µs-scale (wheel), and ms/s-scale (overflow).
    const std::int64_t at = static_cast<std::int64_t>(
        (state >> 33) % 50'000'000);  // up to 50 ms
    reference.emplace_back(at, i);
    engine.schedule_at(Nanos{at}, [&, i] { order.push_back(i); });
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  engine.run();
  ASSERT_EQ(order.size(), reference.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], reference[i].second) << "at position " << i;
  }
}

TEST(EngineTest, RunUntilWithFarFuturePending) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(millis(1), [&] { order.push_back(1); });
  engine.schedule_at(seconds(10), [&] { order.push_back(2); });
  engine.run_until(seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(engine.now(), seconds(5));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), seconds(10));
}

TEST(EngineTest, ScheduleBatchMatchesSequentialScheduleAt) {
  Engine sequential;
  Engine batched;
  std::vector<std::pair<std::int64_t, int>> seq_trace;
  std::vector<std::pair<std::int64_t, int>> batch_trace;
  std::vector<Engine::TimedEvent> batch;
  for (int i = 0; i < 100; ++i) {
    const Nanos at = micros((i * 37) % 250);
    sequential.schedule_at(at, [&, i] {
      seq_trace.emplace_back(sequential.now().count(), i);
    });
    batch.push_back(Engine::TimedEvent{
        at, [&, i] { batch_trace.emplace_back(batched.now().count(), i); }});
  }
  batched.schedule_batch(batch);
  EXPECT_TRUE(batch.empty());  // consumed, reusable as scratch
  sequential.run();
  batched.run();
  EXPECT_EQ(seq_trace, batch_trace);
}

TEST(EngineTest, ScheduleBatchClampsPastTimes) {
  Engine engine;
  Nanos fired{-1};
  engine.schedule_at(millis(10), [&] {
    std::vector<Engine::TimedEvent> batch;
    batch.push_back(Engine::TimedEvent{millis(1), [&] { fired = engine.now(); }});
    engine.schedule_batch(batch);
  });
  engine.run();
  EXPECT_EQ(fired, millis(10));
}

TEST(EngineTest, PendingTracksAllContainers) {
  Engine engine;
  engine.schedule_at(micros(1), [] {});    // active bucket
  engine.schedule_at(millis(1), [] {});    // wheel
  engine.schedule_at(seconds(30), [] {});  // overflow
  EXPECT_EQ(engine.pending(), 3u);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.executed(), 3u);
}

TEST(EngineTest, SparseTimersJumpEmptyWheelRegions) {
  // Widely spaced timers force the cursor to rebase across empty wheel
  // revolutions; each must fire exactly once at its exact time.
  Engine engine;
  std::vector<std::int64_t> fired;
  for (int i = 1; i <= 20; ++i) {
    engine.schedule_at(seconds(i * 7), [&] { fired.push_back(engine.now().count()); });
  }
  engine.run();
  ASSERT_EQ(fired.size(), 20u);
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i - 1)], seconds(i * 7).count());
  }
}

TEST(EngineTest, RunBeforeIsStrictAndLeavesClockAtLastEvent) {
  Engine e;
  std::vector<std::int64_t> ran;
  for (const std::int64_t t : {10, 20, 30}) {
    e.schedule_at(Nanos{t}, [&ran, t] { ran.push_back(t); });
  }
  // The bound is exclusive: the event *at* 20 must not run.
  e.run_before(Nanos{20});
  EXPECT_EQ(ran, std::vector<std::int64_t>{10});
  // Unlike run_until, the clock stays at the last executed event.
  EXPECT_EQ(e.now(), Nanos{10});
  e.run_before(Nanos{31});
  EXPECT_EQ(ran, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(e.now(), Nanos{30});
  EXPECT_TRUE(e.empty());
}

}  // namespace
}  // namespace sds::sim
