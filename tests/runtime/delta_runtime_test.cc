// End-to-end integration for the delta collect path: stage hosts answer
// collects with StageMetricsDelta frames, the controller node each stage
// reports to (the flat global controller, or an aggregator of a 2- or
// 3-level tree) folds them through its columnar MetricsStore, and
// decisions stay bit-identical to the full-frame pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "runtime/deployment.h"
#include "three_level_tree.h"
#include "workload/generators.h"

namespace sds::runtime {
namespace {

/// Deterministic but varied per stage so deltas carry real changes.
stage::DemandFn varied_demand(StageId stage, stage::Dimension dim) {
  const double rate = 500.0 + 100.0 * static_cast<double>(stage.value());
  return workload::constant(dim == stage::Dimension::kData ? rate : rate / 10);
}

DeploymentOptions contended_options() {
  DeploymentOptions options;
  options.num_stages = 16;
  options.stages_per_host = 4;
  options.stages_per_job = 4;
  options.budgets = {8000.0, 800.0};  // contended: 16 × 1000 demand
  options.demand_factory = varied_demand;
  return options;
}

/// Every stage's enforced data and metadata limits; `tree` is a
/// Deployment or a ThreeLevelTree.
template <typename Tree>
std::vector<double> collect_limits(const Tree& tree, std::size_t num_stages) {
  std::vector<double> limits;
  for (std::uint32_t i = 0; i < num_stages; ++i) {
    for (const auto dim : {stage::Dimension::kData, stage::Dimension::kMeta}) {
      auto limit = tree.stage_limit(StageId{i}, dim);
      EXPECT_TRUE(limit.is_ok()) << limit.status();
      limits.push_back(limit.is_ok() ? *limit : -1.0);
    }
  }
  return limits;
}

void expect_same_limits(const std::vector<double>& full,
                        const std::vector<double>& delta) {
  ASSERT_EQ(full.size(), delta.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], delta[i]) << "limit " << i;
  }
}

/// Bytes the given controller nodes have received so far.
std::uint64_t bytes_received(
    const std::vector<std::unique_ptr<ControllerNode>>& nodes) {
  std::uint64_t bytes = 0;
  for (const auto& node : nodes) {
    bytes += node->endpoint()->counters().bytes_received;
  }
  return bytes;
}

TEST(DeltaRuntimeTest, DeltaCollectsMatchFullFramesBitForBit) {
  transport::InProcNetwork net_full;
  auto full = Deployment::create(net_full, contended_options()).value();

  transport::InProcNetwork net_delta;
  auto options = contended_options();
  options.delta_metrics = true;
  options.delta_refresh = 4;  // several full refreshes inside the run
  auto delta = Deployment::create(net_delta, options).value();

  ASSERT_TRUE(full->global().run_cycles(12).is_ok());
  ASSERT_TRUE(delta->global().run_cycles(12).is_ok());

  expect_same_limits(collect_limits(*full, 16), collect_limits(*delta, 16));
}

TEST(DeltaRuntimeTest, TwoLevelDeltaCollectsMatchFullFramesBitForBit) {
  // Four hosts of four stages under two aggregators: each aggregator
  // folds its stages' deltas into its store and summarizes from there.
  auto options = contended_options();
  options.num_aggregators = 2;
  transport::InProcNetwork net_full;
  auto full = Deployment::create(net_full, options).value();

  options.delta_metrics = true;
  options.delta_refresh = 4;  // several full refreshes inside the run
  transport::InProcNetwork net_delta;
  auto delta = Deployment::create(net_delta, options).value();

  ASSERT_TRUE(full->global().run_cycles(12).is_ok());
  ASSERT_TRUE(delta->global().run_cycles(12).is_ok());
  EXPECT_EQ(full->global().stats().degraded_cycles(), 0u);
  EXPECT_EQ(delta->global().stats().degraded_cycles(), 0u);
  // The aggregators took deltas: fewer bytes in than full frames.
  EXPECT_LT(bytes_received(delta->aggregators()),
            bytes_received(full->aggregators()));
  expect_same_limits(collect_limits(*full, 16), collect_limits(*delta, 16));
}

TEST(DeltaRuntimeTest, ThreeLevelDeltaCollectsMatchFullFramesBitForBit) {
  // root -> super -> two aggregators, each over one host of eight stages.
  const auto run = [](bool delta_metrics) {
    ThreeLevelTreeOptions options;
    options.stages = 16;
    options.budgets = {8000.0, 800.0};
    options.demand = varied_demand;
    options.delta_metrics = delta_metrics;
    transport::InProcNetwork net;
    ThreeLevelTree tree(net, options);
    EXPECT_TRUE(tree.start().is_ok());
    EXPECT_TRUE(tree.root().run_cycles(12).is_ok());
    EXPECT_EQ(tree.root().stats().degraded_cycles(), 0u);
    return std::pair(collect_limits(tree, 16),
                     bytes_received(tree.aggregators()));
  };
  const auto [limits_full, bytes_full] = run(false);
  const auto [limits_delta, bytes_delta] = run(true);
  EXPECT_LT(bytes_delta, bytes_full);
  expect_same_limits(limits_full, limits_delta);
}

TEST(DeltaRuntimeTest, DeltaCollectsShrinkInboundWireBytes) {
  // Steady-state demands: after the first full report every delta frame
  // carries only the cycle header, so the controller's inbound byte rate
  // must drop. Inbound also carries per-stage enforce acks (identical in
  // both modes), so assert the per-collect saving rather than a gross
  // ratio — the ≥3× payload gate lives in the sim's exact accounting
  // (StoreCollectTest.DeltaCollectSteadyStateCompressionAtLeast3x).
  auto make = [](bool delta_on) {
    DeploymentOptions options;
    options.num_stages = 32;
    options.stages_per_host = 8;
    options.budgets = {1'000'000.0, 100'000.0};  // uncontended, stable
    options.delta_metrics = delta_on;
    options.delta_refresh = 1000;  // no periodic refresh inside the run
    return options;
  };

  transport::InProcNetwork net_full;
  auto full = Deployment::create(net_full, make(false)).value();
  transport::InProcNetwork net_delta;
  auto delta = Deployment::create(net_delta, make(true)).value();

  // Warm up (registration + first full reports), then measure.
  ASSERT_TRUE(full->global().run_cycles(2).is_ok());
  ASSERT_TRUE(delta->global().run_cycles(2).is_ok());
  const auto full_before = full->global().endpoint()->counters();
  const auto delta_before = delta->global().endpoint()->counters();
  ASSERT_TRUE(full->global().run_cycles(20).is_ok());
  ASSERT_TRUE(delta->global().run_cycles(20).is_ok());
  const std::uint64_t full_bytes =
      full->global().endpoint()->counters().bytes_received -
      full_before.bytes_received;
  const std::uint64_t delta_bytes =
      delta->global().endpoint()->counters().bytes_received -
      delta_before.bytes_received;
  EXPECT_LT(delta_bytes, full_bytes);
  // A full StageMetrics payload is ~42 bytes; a steady-state delta is a
  // varint cycle id + empty flags (~3). Require ≥30 bytes saved per
  // collect reply: 20 cycles × 32 stages.
  EXPECT_GE(full_bytes - delta_bytes, 20u * 32u * 30u)
      << "full=" << full_bytes << " delta=" << delta_bytes;
}

TEST(DeltaRuntimeTest, DeltaChainSurvivesStageHostRestart) {
  transport::InProcNetwork net;
  auto options = contended_options();
  options.delta_metrics = true;
  options.delta_refresh = 1000;  // restart must not depend on a refresh
  auto deployment = Deployment::create(net, options).value();
  ASSERT_TRUE(deployment->global().run_cycles(4).is_ok());

  ASSERT_TRUE(deployment->kill_stage_host(1).is_ok());
  const auto deadline = SystemClock::instance().now() + seconds(5);
  while (deployment->global().registered_stages() != 12 &&
         SystemClock::instance().now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(deployment->global().registered_stages(), 12u);
  // Survivors keep their delta chains across the roster change.
  ASSERT_TRUE(deployment->global().run_cycles(3).is_ok());

  ASSERT_TRUE(deployment->restart_stage_host(1).is_ok());
  while (deployment->global().registered_stages() != 16 &&
         SystemClock::instance().now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(deployment->global().registered_stages(), 16u);
  ASSERT_TRUE(deployment->global().run_cycles(10).is_ok());

  // Every stage (including the restarted host's) is back under control:
  // limits present, within budget, and work-conserving under contention.
  double data_sum = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    auto limit = deployment->stage_limit(StageId{i}, stage::Dimension::kData);
    ASSERT_TRUE(limit.is_ok()) << "stage " << i << ": " << limit.status();
    EXPECT_GE(*limit, 0.0);
    data_sum += *limit;
  }
  EXPECT_LE(data_sum, 8000.0 * 1.001);
  EXPECT_GE(data_sum, 8000.0 * 0.9);
}

TEST(DeltaRuntimeTest, DeltaMetricsRejectsZeroRefresh) {
  transport::InProcNetwork net;
  DeploymentOptions options;
  options.num_stages = 8;
  options.delta_metrics = true;
  options.delta_refresh = 0;
  const auto deployment = Deployment::create(net, options);
  ASSERT_FALSE(deployment.is_ok());
  EXPECT_EQ(deployment.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sds::runtime
