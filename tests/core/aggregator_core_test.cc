#include "core/aggregator.h"

#include <gtest/gtest.h>

#include <memory>

namespace sds::core {
namespace {

proto::StageMetrics metrics(std::uint32_t stage, std::uint32_t job,
                            double data, double meta) {
  proto::StageMetrics m;
  m.cycle_id = 1;
  m.stage_id = StageId{stage};
  m.job_id = JobId{job};
  m.data_iops = data;
  m.meta_iops = meta;
  return m;
}

TEST(AggregatorCoreTest, AggregateMergesPerJob) {
  AggregatorCore agg(AggregatorOptions{ControllerId{3}, true, false});
  const std::vector<proto::StageMetrics> input = {
      metrics(1, 0, 100, 10), metrics(2, 0, 200, 20), metrics(3, 1, 50, 5)};
  const auto report = agg.aggregate(9, input);
  EXPECT_EQ(report.cycle_id, 9u);
  EXPECT_EQ(report.from, ControllerId{3});
  EXPECT_EQ(report.total_stages, 3u);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].job_id, JobId{0});
  EXPECT_DOUBLE_EQ(report.jobs[0].data_iops, 300.0);
  EXPECT_DOUBLE_EQ(report.jobs[0].meta_iops, 30.0);
  EXPECT_EQ(report.jobs[0].stage_count, 2u);
  EXPECT_EQ(report.jobs[1].stage_count, 1u);
  EXPECT_TRUE(report.digests.empty());
}

TEST(AggregatorCoreTest, AggregateWithDigests) {
  AggregatorCore agg(AggregatorOptions{ControllerId{3}, true, true});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 100, 10),
                                                  metrics(2, 0, 200, 20)};
  const auto report = agg.aggregate(1, input);
  ASSERT_EQ(report.digests.size(), 2u);
  EXPECT_EQ(report.digests[0].stage_id, StageId{1});
  EXPECT_FLOAT_EQ(report.digests[1].data_iops, 200.0f);
}

TEST(AggregatorCoreTest, AggregateNegativeRatesClamped) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, -50, -5)};
  const auto report = agg.aggregate(1, input);
  EXPECT_DOUBLE_EQ(report.jobs[0].data_iops, 0.0);
}

TEST(AggregatorCoreTest, AggregateEmptyInput) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const auto report = agg.aggregate(1, {});
  EXPECT_EQ(report.total_stages, 0u);
  EXPECT_TRUE(report.jobs.empty());
}

TEST(AggregatorCoreTest, PassthroughRelaysRawEntries) {
  AggregatorCore agg(AggregatorOptions{ControllerId{2}, false});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 100, 10),
                                                  metrics(2, 1, 200, 20)};
  const auto batch = agg.passthrough(5, input);
  EXPECT_EQ(batch.cycle_id, 5u);
  EXPECT_EQ(batch.from, ControllerId{2});
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_EQ(batch.entries[1].stage_id, StageId{2});
}

TEST(AggregatorCoreTest, MergeAcksSumsMatchingCycle) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  const std::vector<proto::EnforceAck> acks = {
      {7, 3}, {7, 2}, {6, 100}};  // stale cycle ignored
  const auto merged = agg.merge_acks(7, acks);
  EXPECT_EQ(merged.cycle_id, 7u);
  EXPECT_EQ(merged.applied, 5u);
}

TEST(AggregatorCoreTest, LocalComputeRespectsLease) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  proto::BudgetLease lease;
  lease.cycle_id = 1;
  lease.data_budget = 500.0;
  lease.meta_budget = 50.0;
  lease.valid_until_ns = 1'000'000;
  agg.set_lease(lease);

  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 1000, 100),
                                                  metrics(2, 0, 1000, 100)};
  const auto rules = agg.local_compute(1, input, /*now_ns=*/500'000);
  ASSERT_EQ(rules.size(), 2u);
  double data_sum = 0;
  for (const auto& rule : rules) data_sum += rule.data_iops_limit;
  EXPECT_LE(data_sum, 500.0 + 1e-6);
  EXPECT_GE(data_sum, 499.0);  // work-conserving under contention
}

TEST(AggregatorCoreTest, LocalComputeExpiredLeaseYieldsNothing) {
  AggregatorCore agg(AggregatorOptions{ControllerId{1}});
  proto::BudgetLease lease;
  lease.valid_until_ns = 100;
  agg.set_lease(lease);
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 1000, 100)};
  EXPECT_TRUE(agg.local_compute(1, input, /*now_ns=*/200).empty());
}

// -- Coordinated-peer mode ------------------------------------------------

/// A coordinated peer as the simulator builds one: summaries without
/// digests, and the global budgets in its policy table.
std::unique_ptr<AggregatorCore> make_peer(std::uint32_t id, Budgets budgets) {
  auto peer = std::make_unique<AggregatorCore>(
      AggregatorOptions{ControllerId{id}, true, /*include_digests=*/false});
  peer->policies().set_budgets(budgets);
  return peer;
}

TEST(CoordinatedTest, SummarizeMatchesAggregatorSemantics) {
  const auto peer = make_peer(1, Budgets{1000.0, 100.0});
  const std::vector<proto::StageMetrics> input = {metrics(1, 0, 100, 10),
                                                  metrics(2, 0, 300, 30)};
  const auto summary = peer->aggregate(4, input);
  EXPECT_EQ(summary.from, ControllerId{1});
  EXPECT_EQ(summary.total_stages, 2u);
  ASSERT_EQ(summary.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(summary.jobs[0].data_iops, 400.0);
  EXPECT_TRUE(summary.digests.empty());
}

TEST(CoordinatedTest, TwoPeersProduceRulesForOwnStagesOnly) {
  const Budgets budgets{1000.0, 100.0};
  const auto peer_a = make_peer(0, budgets);
  const auto peer_b = make_peer(1, budgets);

  const std::vector<proto::StageMetrics> a_local = {metrics(0, 0, 600, 60),
                                                    metrics(1, 0, 600, 60)};
  const std::vector<proto::StageMetrics> b_local = {metrics(2, 1, 1200, 120)};

  const std::vector<proto::AggregatedMetrics> summaries = {
      peer_a->aggregate(1, a_local), peer_b->aggregate(1, b_local)};

  const auto a_rules = peer_a->compute_own_rules(1, summaries, a_local);
  const auto b_rules = peer_b->compute_own_rules(1, summaries, b_local);
  ASSERT_EQ(a_rules.size(), 2u);
  ASSERT_EQ(b_rules.size(), 1u);
  EXPECT_EQ(a_rules[0].stage_id, StageId{0});
  EXPECT_EQ(b_rules[0].stage_id, StageId{2});
}

TEST(CoordinatedTest, GlobalBudgetRespectedAcrossPeers) {
  // The combined enforcement of all peers must not exceed the global
  // budget — the property that makes coordination equivalent to a
  // central controller.
  const Budgets budgets{1000.0, 100.0};
  const auto peer_a = make_peer(0, budgets);
  const auto peer_b = make_peer(1, budgets);

  const std::vector<proto::StageMetrics> a_local = {metrics(0, 0, 2000, 200),
                                                    metrics(1, 1, 2000, 200)};
  const std::vector<proto::StageMetrics> b_local = {metrics(2, 0, 2000, 200),
                                                    metrics(3, 2, 2000, 200)};
  const std::vector<proto::AggregatedMetrics> summaries = {
      peer_a->aggregate(1, a_local), peer_b->aggregate(1, b_local)};

  double data_total = 0;
  for (const auto& rule : peer_a->compute_own_rules(1, summaries, a_local)) {
    data_total += rule.data_iops_limit;
  }
  for (const auto& rule : peer_b->compute_own_rules(1, summaries, b_local)) {
    data_total += rule.data_iops_limit;
  }
  EXPECT_LE(data_total, 1000.0 + 1e-6);
  EXPECT_GE(data_total, 990.0);  // and it is work-conserving
}

TEST(CoordinatedTest, DeterministicRegardlessOfSummaryOrder) {
  const Budgets budgets{5000.0, 500.0};
  const auto peer = make_peer(0, budgets);
  const std::vector<proto::StageMetrics> local = {metrics(0, 0, 900, 90),
                                                  metrics(1, 1, 400, 40)};
  const auto other = make_peer(1, budgets);
  const std::vector<proto::StageMetrics> other_local = {
      metrics(2, 0, 700, 70), metrics(3, 2, 100, 10)};

  const auto s0 = peer->aggregate(1, local);
  const auto s1 = other->aggregate(1, other_local);
  const std::vector<proto::AggregatedMetrics> forward = {s0, s1};
  const std::vector<proto::AggregatedMetrics> reversed = {s1, s0};

  const auto rules_fwd = peer->compute_own_rules(1, forward, local);
  const auto rules_rev = peer->compute_own_rules(1, reversed, local);
  ASSERT_EQ(rules_fwd.size(), rules_rev.size());
  for (std::size_t i = 0; i < rules_fwd.size(); ++i) {
    EXPECT_DOUBLE_EQ(rules_fwd[i].data_iops_limit, rules_rev[i].data_iops_limit);
    EXPECT_DOUBLE_EQ(rules_fwd[i].meta_iops_limit, rules_rev[i].meta_iops_limit);
  }
}

TEST(CoordinatedTest, PeerWithoutLocalStagesProducesNoRules) {
  const Budgets budgets{1000.0, 100.0};
  const auto peer = make_peer(0, budgets);
  const auto other = make_peer(1, budgets);
  const std::vector<proto::StageMetrics> other_local = {metrics(1, 0, 500, 50)};
  const std::vector<proto::AggregatedMetrics> summaries = {
      peer->aggregate(1, {}), other->aggregate(1, other_local)};
  EXPECT_TRUE(peer->compute_own_rules(1, summaries, {}).empty());
}

TEST(CoordinatedTest, WeightsApplyGlobally) {
  const Budgets budgets{1000.0, 100.0};
  const auto peer_a = make_peer(0, budgets);
  const auto peer_b = make_peer(1, budgets);
  peer_a->policies().set_weight(JobId{0}, 3.0);
  peer_b->policies().set_weight(JobId{0}, 3.0);  // peers share policy config

  const std::vector<proto::StageMetrics> a_local = {metrics(0, 0, 5000, 500)};
  const std::vector<proto::StageMetrics> b_local = {metrics(1, 1, 5000, 500)};
  const std::vector<proto::AggregatedMetrics> summaries = {
      peer_a->aggregate(1, a_local), peer_b->aggregate(1, b_local)};

  const auto a_rules = peer_a->compute_own_rules(1, summaries, a_local);
  const auto b_rules = peer_b->compute_own_rules(1, summaries, b_local);
  ASSERT_EQ(a_rules.size(), 1u);
  ASSERT_EQ(b_rules.size(), 1u);
  EXPECT_NEAR(a_rules[0].data_iops_limit, 3 * b_rules[0].data_iops_limit, 1e-6);
}

}  // namespace
}  // namespace sds::core
