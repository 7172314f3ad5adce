#include "core/metrics_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace sds::core {
namespace {

proto::StageMetrics metrics(std::uint32_t stage, std::uint32_t job,
                            std::uint64_t cycle, double data, double meta,
                            double data_limit = proto::kUnlimited,
                            double meta_limit = proto::kUnlimited) {
  proto::StageMetrics m;
  m.cycle_id = cycle;
  m.stage_id = StageId{stage};
  m.job_id = JobId{job};
  m.data_iops = data;
  m.meta_iops = meta;
  m.data_limit = data_limit;
  m.meta_limit = meta_limit;
  return m;
}

TEST(MetricsStoreTest, BindAssignsDenseSlotsAndIsIdempotent) {
  MetricsStore store;
  EXPECT_EQ(store.bind(StageId{10}, JobId{0}), 0u);
  EXPECT_EQ(store.bind(StageId{20}, JobId{1}), 1u);
  EXPECT_EQ(store.bind(StageId{10}, JobId{0}), 0u);  // idempotent
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.index_of(StageId{20}), 1u);
  EXPECT_EQ(store.index_of(StageId{99}), MetricsStore::kInvalidIndex);
}

TEST(MetricsStoreTest, BindBumpsStructureEpochAndMarksSlotDirty) {
  MetricsStore store;
  const std::uint64_t epoch0 = store.structure_epoch();
  (void)store.bind(StageId{1}, JobId{0});
  EXPECT_GT(store.structure_epoch(), epoch0);
  EXPECT_TRUE(store.any_dirty());  // fresh slot visible to next compute
}

TEST(MetricsStoreTest, UpdateWritesColumnsAndReportedRoundTrips) {
  MetricsStore store;
  (void)store.bind(StageId{7}, JobId{3});
  const proto::StageMetrics m = metrics(7, 3, 5, 123.5, 4.25, 900.0, 10.0);
  EXPECT_EQ(store.update(m), 0u);
  EXPECT_EQ(store.data_iops()[0], 123.5);
  EXPECT_EQ(store.meta_iops()[0], 4.25);
  EXPECT_EQ(store.last_cycle()[0], 5u);
  EXPECT_EQ(store.reported(0), m);  // bit-exact reconstruction
}

TEST(MetricsStoreTest, UpdateUnknownStageReturnsInvalidIndex) {
  MetricsStore store;
  EXPECT_EQ(store.update(metrics(1, 0, 1, 10, 1)), MetricsStore::kInvalidIndex);
}

TEST(MetricsStoreTest, StaleFullFrameDropped) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  (void)store.update(metrics(1, 0, 5, 100, 10));
  (void)store.update(metrics(1, 0, 3, 999, 99));  // older cycle: dropped
  EXPECT_EQ(store.data_iops()[0], 100.0);
  EXPECT_EQ(store.counters().stale_full_frames, 1u);
}

TEST(MetricsStoreTest, DeltaChainReproducesReportsBitForBit) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  proto::StageMetrics prev = metrics(1, 0, 1, 100.125, 10.5);
  (void)store.update(prev);
  for (std::uint64_t cycle = 2; cycle <= 20; ++cycle) {
    proto::StageMetrics curr = prev;
    curr.cycle_id = cycle;
    curr.data_iops += 0.1 * static_cast<double>(cycle);
    curr.meta_iops -= 0.01;
    const auto delta =
        proto::StageMetricsDelta::make(prev, curr, /*include_stage_id=*/true);
    ASSERT_EQ(store.apply_delta(delta), DeltaStatus::kApplied);
    EXPECT_EQ(store.reported(0), curr);
    prev = curr;
  }
  EXPECT_EQ(store.counters().deltas_applied, 19u);
}

TEST(MetricsStoreTest, DeltaWithoutStageIdUsesConnHint) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  (void)store.bind(StageId{2}, JobId{0});
  const proto::StageMetrics prev = metrics(2, 0, 1, 50, 5);
  (void)store.update(prev);
  proto::StageMetrics curr = prev;
  curr.cycle_id = 2;
  curr.data_iops = 60;
  const auto delta =
      proto::StageMetricsDelta::make(prev, curr, /*include_stage_id=*/false);
  EXPECT_EQ(store.apply_delta(delta), DeltaStatus::kUnknownStage);  // no hint
  EXPECT_EQ(store.apply_delta(delta, 1), DeltaStatus::kApplied);
  EXPECT_EQ(store.reported(1), curr);
  EXPECT_EQ(store.counters().deltas_unknown_stage, 1u);
}

TEST(MetricsStoreTest, DuplicateAndOutOfOrderDeltasRejected) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  const proto::StageMetrics base = metrics(1, 0, 4, 100, 10);
  (void)store.update(base);
  proto::StageMetrics next = base;
  next.cycle_id = 5;
  next.data_iops = 110;
  const auto delta = proto::StageMetricsDelta::make(base, next, true);
  ASSERT_EQ(store.apply_delta(delta), DeltaStatus::kApplied);
  // Re-delivery of the same frame (ChaosNetwork duplicate fate).
  EXPECT_EQ(store.apply_delta(delta), DeltaStatus::kDuplicate);
  EXPECT_EQ(store.reported(0), next);  // value unchanged
  EXPECT_EQ(store.counters().deltas_duplicate, 1u);
}

TEST(MetricsStoreTest, BrokenBaseChainRejected) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  const proto::StageMetrics base = metrics(1, 0, 4, 100, 10);
  (void)store.update(base);
  proto::StageMetrics skipped = base;
  skipped.cycle_id = 5;  // this report never arrives
  proto::StageMetrics next = skipped;
  next.cycle_id = 6;
  next.data_iops = 120;
  const auto delta = proto::StageMetricsDelta::make(skipped, next, true);
  EXPECT_EQ(store.apply_delta(delta), DeltaStatus::kBaseMismatch);
  EXPECT_EQ(store.reported(0), base);  // old value stays in force
  EXPECT_EQ(store.counters().deltas_base_mismatch, 1u);
}

TEST(MetricsStoreTest, NonFiniteDeltaRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    MetricsStore store;
    (void)store.bind(StageId{1}, JobId{0});
    const proto::StageMetrics base = metrics(1, 0, 4, 100, 10);
    (void)store.update(base);
    std::vector<std::uint32_t> dirty;
    store.drain_dirty(dirty);
    proto::StageMetrics next = base;
    next.cycle_id = 5;
    next.data_iops = bad;
    const auto delta = proto::StageMetricsDelta::make(base, next, true);
    EXPECT_EQ(store.apply_delta(delta), DeltaStatus::kNonFinite) << bad;
    EXPECT_EQ(store.reported(0), base);  // the last report stays in force
    EXPECT_EQ(store.data_iops()[0], 100.0);
    EXPECT_FALSE(store.any_dirty());
    EXPECT_EQ(store.counters().deltas_non_finite, 1u);
    EXPECT_EQ(store.counters().deltas_applied, 0u);
  }
}

TEST(MetricsStoreTest, ActivityThresholdGatesComputeViewNotReported) {
  MetricsStore store(MetricsStoreOptions{/*activity_threshold=*/5.0});
  (void)store.bind(StageId{1}, JobId{0});
  (void)store.update(metrics(1, 0, 1, 100, 10));
  std::vector<std::uint32_t> dirty;
  store.drain_dirty(dirty);

  // Jitter below the threshold: reported column follows, view doesn't.
  (void)store.update(metrics(1, 0, 2, 103, 10));
  EXPECT_EQ(store.reported(0).data_iops, 103.0);
  EXPECT_EQ(store.data_iops()[0], 100.0);
  EXPECT_FALSE(store.any_dirty());

  // A move past the threshold propagates and dirties the slot.
  (void)store.update(metrics(1, 0, 3, 110, 10));
  EXPECT_EQ(store.data_iops()[0], 110.0);
  EXPECT_TRUE(store.any_dirty());
}

TEST(MetricsStoreTest, DrainDirtySortedAscendingAndClears) {
  MetricsStore store;
  for (std::uint32_t i = 0; i < 8; ++i) (void)store.bind(StageId{i}, JobId{0});
  std::vector<std::uint32_t> dirty;
  store.drain_dirty(dirty);  // consume the bind-time dirtiness
  // Touch slots in descending order; drain must come back ascending.
  for (std::uint32_t i = 8; i-- > 0;) {
    (void)store.update(metrics(i, 0, 1, 10.0 + i, 1));
  }
  store.drain_dirty(dirty);
  ASSERT_EQ(dirty.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(dirty[i], i);
  EXPECT_FALSE(store.any_dirty());
  // A second touch re-dirties exactly once.
  (void)store.update(metrics(3, 0, 2, 99, 1));
  (void)store.update(metrics(3, 0, 3, 98, 1));
  store.drain_dirty(dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 3u);
}

TEST(MetricsStoreTest, ClearDirtyDropsWithoutConsuming) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  EXPECT_TRUE(store.any_dirty());
  store.clear_dirty();
  EXPECT_FALSE(store.any_dirty());
}

TEST(MetricsStoreTest, ResetDropsSlotsAndBumpsEpoch) {
  MetricsStore store;
  (void)store.bind(StageId{1}, JobId{0});
  (void)store.update(metrics(1, 0, 1, 100, 10));
  const std::uint64_t epoch = store.structure_epoch();
  store.reset(4);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_GT(store.structure_epoch(), epoch);
  EXPECT_EQ(store.index_of(StageId{1}), MetricsStore::kInvalidIndex);
}

TEST(MetricsStoreTest, RandomizedDeltaChainMatchesFullFrames) {
  // Two stores fed the same walk — one via full frames, one via deltas —
  // must agree bit-for-bit on every column.
  MetricsStore full_store;
  MetricsStore delta_store;
  (void)full_store.bind(StageId{1}, JobId{0});
  (void)delta_store.bind(StageId{1}, JobId{0});
  Rng rng(0xfeedu);
  proto::StageMetrics prev = metrics(1, 0, 1, 1000, 100, 900, 90);
  (void)full_store.update(prev);
  (void)delta_store.update(prev);
  for (std::uint64_t cycle = 2; cycle < 300; ++cycle) {
    proto::StageMetrics curr = prev;
    curr.cycle_id = cycle;
    if (rng.bernoulli(0.7)) curr.data_iops *= 1.0 + rng.normal(0, 0.01);
    if (rng.bernoulli(0.5)) curr.meta_iops += rng.normal(0, 0.5);
    if (rng.bernoulli(0.1)) curr.data_limit = rng.uniform01() * 2000.0;
    (void)full_store.update(curr);
    const auto delta = proto::StageMetricsDelta::make(prev, curr, true);
    ASSERT_EQ(delta_store.apply_delta(delta), DeltaStatus::kApplied);
    ASSERT_EQ(delta_store.reported(0), full_store.reported(0));
    prev = curr;
  }
  EXPECT_EQ(delta_store.data_iops()[0], full_store.data_iops()[0]);
  EXPECT_EQ(delta_store.meta_iops()[0], full_store.meta_iops()[0]);
}

}  // namespace
}  // namespace sds::core
