// The simulator's timing does not depend on the experiment seed: the
// seed draws stage demands, and no modeled cost depends on a demand
// value. So every field a bench row prints (phase means, cycles,
// controller CPU / memory / tx / rx, and the resilience accounting of a
// faulted run) is bit-identical across seeds, and the benches run each
// configuration once (bench::run_config). A model change that makes
// timing seed-dependent fails here; repetitions then come back on
// purpose, not by accident.
//
// Utilization and final limit sums do move with the seed, and so would
// phase means under delta collect (frame sizes depend on demands); no
// bench prints those for a delta run.

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "sim/experiment.h"

namespace sds::sim {
namespace {

/// Every field bench::RunSummary reads, compared bit-for-bit.
void expect_same_printed_fields(const ExperimentResult& a,
                                const ExperimentResult& b,
                                const std::string& what) {
  EXPECT_EQ(a.stats.mean_total_ms(), b.stats.mean_total_ms()) << what;
  EXPECT_EQ(a.stats.mean_collect_ms(), b.stats.mean_collect_ms()) << what;
  EXPECT_EQ(a.stats.mean_compute_ms(), b.stats.mean_compute_ms()) << what;
  EXPECT_EQ(a.stats.mean_enforce_ms(), b.stats.mean_enforce_ms()) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  for (const auto& [x, y] :
       {std::pair{a.global, b.global}, std::pair{a.aggregator, b.aggregator}}) {
    EXPECT_EQ(x.cpu_percent, y.cpu_percent) << what;
    EXPECT_EQ(x.memory_gb, y.memory_gb) << what;
    EXPECT_EQ(x.transmitted_mbps, y.transmitted_mbps) << what;
    EXPECT_EQ(x.received_mbps, y.received_mbps) << what;
  }
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles) << what;
  EXPECT_EQ(a.stale_stage_reports, b.stale_stage_reports) << what;
  EXPECT_EQ(a.mean_recovery_ms, b.mean_recovery_ms) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
}

/// Run `config` under seeds 42, 43 and 44 (the seeds the benches used to
/// average over), require the printed fields to match seed 42's, and
/// return seed 42's result.
ExperimentResult expect_seed_invariant(ExperimentConfig config) {
  config.seed = 42;
  auto base = run_experiment(config);
  EXPECT_TRUE(base.is_ok()) << base.status();
  if (!base.is_ok()) return {};
  EXPECT_GT(base->cycles, 0u);
  for (const std::uint64_t seed : {43u, 44u}) {
    config.seed = seed;
    const auto other = run_experiment(config);
    EXPECT_TRUE(other.is_ok()) << other.status();
    if (other.is_ok()) {
      expect_same_printed_fields(*base, *other,
                                 "seed " + std::to_string(seed));
    }
  }
  return std::move(base).value();
}

/// fig7_resilience's built-in plan.
fault::FaultPlan churn_plan() {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.quorum = 0.9;
  plan.phase_timeout = millis(50);
  plan.stage_mtbf_s = 60;
  plan.stage_downtime_s = 2;
  plan.drop_probability = 0.01;
  plan.delay_probability = 0.05;
  plan.delay = micros(200);
  return plan;
}

TEST(SeedInvarianceTest, FlatTimingIsSeedInvariant) {
  ExperimentConfig config;
  config.num_stages = 500;
  config.duration = seconds(2);
  expect_seed_invariant(config);
}

TEST(SeedInvarianceTest, HierarchicalTimingIsSeedInvariant) {
  ExperimentConfig config;
  config.num_stages = 2500;
  config.num_aggregators = 1;
  config.duration = seconds(2);
  expect_seed_invariant(config);
}

TEST(SeedInvarianceTest, FaultedTimingAndResilienceAreSeedInvariant) {
  const fault::FaultPlan plan = churn_plan();
  ExperimentConfig config;
  config.num_stages = 2500;
  config.num_aggregators = 1;
  config.duration = seconds(2);
  config.fault_plan = &plan;
  const ExperimentResult result = expect_seed_invariant(config);
  // The plan must actually have bitten, or the resilience fields above
  // compared zeros.
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.degraded_cycles, 0u);
}

}  // namespace
}  // namespace sds::sim
