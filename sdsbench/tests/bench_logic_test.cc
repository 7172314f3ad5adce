// Tests of the benchmark's own logic: order statistics with sample
// counts, fingerprint checking, and the seed reaching the inputs.
#include <gtest/gtest.h>

#include <vector>

#include "fingerprint.h"
#include "inputs.h"
#include "layers.h"
#include "stats.h"

namespace sdsbench {
namespace {

TEST(StatsTest, SummaryReportsCountMedianTailAndSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const LatencySummary s = summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.p90, 90);
  EXPECT_DOUBLE_EQ(s.p99, 99);
  EXPECT_EQ(s.beyond_p99, 1u);
}

TEST(StatsTest, TailOfASmallSampleIsItsMaximum) {
  const LatencySummary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 3.0);
  EXPECT_EQ(s.beyond_p99, 0u);
  EXPECT_EQ(summarize({}).count, 0u);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(StatsTest, WindowsConfineAStallToTheWindowItHit) {
  // 13 cycles a quarter second apart: three whole windows of four
  // cycles, and one trailing cycle that is dropped. The third cycle of
  // the first window stalled.
  std::vector<CycleSample> cycles;
  for (int k = 1; k <= 13; ++k) {
    const double window = (k - 1) / 4;
    cycles.push_back({0.25 * k, 0.01 * k, k == 3 ? 100.0 : k % 4 + window});
  }
  const WindowSummary w = summarize_windows(cycles, 0.0, 0.0, 4);
  EXPECT_EQ(w.windows, 3u);
  EXPECT_DOUBLE_EQ(w.cycles_per_s, 4.0);
  EXPECT_NEAR(w.cpu_ms_per_cycle, 10.0, 1e-9);
  // Window p90s are 100 (the stall), 4 and 5: the median is 5.
  EXPECT_DOUBLE_EQ(w.p90_ms, 5.0);
}

TEST(StatsTest, AShortLoopIsOneWindow) {
  const WindowSummary w =
      summarize_windows({{0.5, 0.1, 2.0}, {1.0, 0.2, 3.0}}, 0.0, 0.0, 5);
  EXPECT_EQ(w.windows, 1u);
  EXPECT_DOUBLE_EQ(w.cycles_per_s, 2.0);
  EXPECT_DOUBLE_EQ(w.p90_ms, 3.0);
  EXPECT_NEAR(w.cpu_ms_per_cycle, 100.0, 1e-9);
  EXPECT_EQ(summarize_windows({}, 0.0, 0.0, 5).windows, 0u);
}

TEST(FingerprintTest, MismatchIsDetectedAndUnknownSeedsAreUnrecorded) {
  auto table = FingerprintTable::parse(
      "# comment\n"
      "sim_flat_churn 1 100 00000000000000ff\n"
      "\n"
      "sim_flat_churn 2 100 abc  # trailing comment\n");
  ASSERT_TRUE(table.is_ok());
  EXPECT_EQ(check_fingerprint(*table, "sim_flat_churn", 1, 100, 0xff),
            FingerprintVerdict::kMatch);
  EXPECT_EQ(check_fingerprint(*table, "sim_flat_churn", 1, 100, 0xfe),
            FingerprintVerdict::kMismatch);
  EXPECT_EQ(check_fingerprint(*table, "sim_flat_churn", 2, 100, 0xabc),
            FingerprintVerdict::kMatch);
  EXPECT_EQ(check_fingerprint(*table, "sim_flat_churn", 3, 100, 0xff),
            FingerprintVerdict::kUnrecorded);
  EXPECT_EQ(check_fingerprint(*table, "sim_flat_churn", 1, 8, 0xff),
            FingerprintVerdict::kUnrecorded);
}

TEST(FingerprintTest, MalformedTablesAreRejected) {
  EXPECT_FALSE(FingerprintTable::parse("sim_flat_churn 1 100\n").is_ok());
  EXPECT_FALSE(FingerprintTable::parse("sim_flat_churn 1 100 xyz\n").is_ok());
  EXPECT_FALSE(FingerprintTable::parse("sim_flat_churn 1 100 ff extra\n").is_ok());
}

TEST(FingerprintTest, CoversOutputsButNotTheEventCount) {
  sds::sim::ExperimentResult r;
  r.cycles = 4;
  r.final_data_limits = {10.0, 20.0};
  r.final_meta_limits = {1.0, 2.0};
  const std::uint64_t base = sim_fingerprint(r);

  sds::sim::ExperimentResult fewer_events = r;
  fewer_events.events_executed = 12345;
  EXPECT_EQ(sim_fingerprint(fewer_events), base);

  sds::sim::ExperimentResult moved_limit = r;
  moved_limit.final_data_limits[1] = 20.000000000000004;
  EXPECT_NE(sim_fingerprint(moved_limit), base);

  sds::sim::ExperimentResult more_bytes = r;
  more_bytes.collect_wire_bytes = 1;
  EXPECT_NE(sim_fingerprint(more_bytes), base);

  sds::sim::ExperimentResult degraded = r;
  degraded.degraded_cycles = 1;
  EXPECT_NE(sim_fingerprint(degraded), base);
}

TEST(InputsTest, SeedDrivesDemandChurnAndFaultPlan) {
  const Demand a = draw_demand(1, 100);
  const Demand again = draw_demand(1, 100);
  const Demand b = draw_demand(2, 100);
  EXPECT_EQ(a.data, again.data);
  EXPECT_EQ(a.meta, again.meta);
  EXPECT_NE(a.data, b.data);
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    EXPECT_GE(a.data[i], 500.0);
    EXPECT_LT(a.data[i], 1500.0);
    EXPECT_GE(a.meta[i], 50.0);
    EXPECT_LT(a.meta[i], 150.0);
  }
  EXPECT_EQ(churn_plan(1).seed, churn_plan(1).seed);
  EXPECT_NE(churn_plan(1).seed, churn_plan(2).seed);
  EXPECT_DOUBLE_EQ(churn_plan(1).quorum, 0.9);

  const JobChurn c1(1, 25);
  const JobChurn c2(2, 25);
  bool differs = false;
  for (std::size_t job = 0; job < 25; ++job) {
    differs = differs || c1.factor(job, 10) != c2.factor(job, 10);
    EXPECT_EQ(c1.factor(job, 10), JobChurn(1, 25).factor(job, 10));
  }
  EXPECT_TRUE(differs);
}

TEST(InputsTest, ChurnMovesAFixedShareOfJobsEachCycle) {
  const JobChurn churn(7, 25);
  for (std::uint64_t cycle = 1; cycle < 60; ++cycle) {
    int moved = 0;
    for (std::size_t job = 0; job < 50; ++job) {
      moved += churn.factor(job, cycle) != churn.factor(job, cycle - 1) ? 1 : 0;
      EXPECT_GE(churn.factor(job, cycle), 0.5);
      EXPECT_LT(churn.factor(job, cycle), 1.5);
    }
    EXPECT_EQ(moved, 2);  // 50 jobs / period 25
  }
}

TEST(InputsTest, SeedReachesTheSimulatedOutputs) {
  const Shape shape{60, 0, 10, false};
  const auto fingerprint_for = [&](std::uint64_t seed) {
    const Demand demand = draw_demand(seed, shape.stages);
    const sds::core::Budgets budgets = budgets_for(demand, 0.5);
    auto result = sds::sim::run_experiment(
        sim_config(shape, demand, &budgets, nullptr, 3));
    EXPECT_TRUE(result.is_ok());
    return result.is_ok() ? sim_fingerprint(*result) : 0;
  };
  EXPECT_EQ(fingerprint_for(1), fingerprint_for(1));
  EXPECT_NE(fingerprint_for(1), fingerprint_for(2));
}

}  // namespace
}  // namespace sdsbench
