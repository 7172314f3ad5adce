// Cross-validation: the discrete-event simulator and the live runtime
// share the controller logic, so the *decisions* (enforced per-stage
// limits) for the same workload must agree — this is what justifies
// trusting 10,000-node simulated results from code validated live.
#include <gtest/gtest.h>

#include "runtime/deployment.h"
#include "sim/experiment.h"
#include "three_level_tree.h"
#include "workload/generators.h"

namespace sds {
namespace {

/// Deterministic demand: stage i wants 400 + 150*i data ops/s and a
/// tenth of that in metadata ops/s.
stage::DemandFn demand_for(StageId stage, stage::Dimension dim) {
  const double base = 400.0 + 150.0 * stage.value();
  return workload::constant(dim == stage::Dimension::kData ? base
                                                           : base / 10.0);
}

struct Topology {
  std::size_t stages;
  std::size_t aggregators;
  std::size_t stages_per_job;
};

class CrossValidationTest : public ::testing::TestWithParam<Topology> {};

TEST_P(CrossValidationTest, SimAndLiveEnforceSameLimits) {
  const Topology& topo = GetParam();
  const core::Budgets budgets{4000.0, 400.0};  // heavily contended

  // --- Simulated run -------------------------------------------------
  sim::ExperimentConfig sim_config;
  sim_config.num_stages = topo.stages;
  sim_config.num_aggregators = topo.aggregators;
  sim_config.stages_per_job = topo.stages_per_job;
  sim_config.budgets = budgets;
  sim_config.max_cycles = 4;
  sim_config.duration = seconds(60);
  sim_config.demand_factory = demand_for;
  const auto sim_result = sim::run_experiment(sim_config);
  ASSERT_TRUE(sim_result.is_ok()) << sim_result.status();

  // --- Live run (in-process transport) ---------------------------------
  transport::InProcNetwork network;
  runtime::DeploymentOptions live_options;
  live_options.num_stages = topo.stages;
  live_options.num_aggregators = topo.aggregators;
  live_options.stages_per_job = topo.stages_per_job;
  live_options.budgets = budgets;
  live_options.demand_factory = demand_for;
  auto deployment = runtime::Deployment::create(network, live_options);
  ASSERT_TRUE(deployment.is_ok()) << deployment.status();
  ASSERT_TRUE((*deployment)->global().run_cycles(4).is_ok());

  // --- Compare per-stage enforced limits --------------------------------
  ASSERT_EQ(sim_result->final_data_limits.size(), topo.stages);
  for (std::uint32_t i = 0; i < topo.stages; ++i) {
    const double sim_limit = sim_result->final_data_limits[i];
    const auto live_limit =
        (*deployment)->stage_limit(StageId{i}, stage::Dimension::kData);
    ASSERT_TRUE(live_limit.is_ok());
    EXPECT_NEAR(*live_limit, sim_limit, std::abs(sim_limit) * 0.01 + 0.5)
        << "stage " << i;

    const double sim_meta = sim_result->final_meta_limits[i];
    const auto live_meta =
        (*deployment)->stage_limit(StageId{i}, stage::Dimension::kMeta);
    ASSERT_TRUE(live_meta.is_ok());
    EXPECT_NEAR(*live_meta, sim_meta, std::abs(sim_meta) * 0.01 + 0.5)
        << "stage " << i << " (meta)";
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, CrossValidationTest,
                         ::testing::Values(Topology{8, 0, 4},
                                           Topology{12, 0, 3},
                                           Topology{8, 2, 4},
                                           Topology{12, 3, 4}));

TEST(CrossValidationTest, DeepTreeSimAndLiveEnforceSameLimits) {
  // 8 stages in 2 jobs under 2 aggregators and 1 super-aggregator: the
  // simulator's 3-level tree and a live one built node by node.
  const core::Budgets budgets{4000.0, 400.0};
  sim::ExperimentConfig sim_config;
  sim_config.num_stages = 8;
  sim_config.num_aggregators = 2;
  sim_config.num_super_aggregators = 1;
  sim_config.stages_per_job = 4;
  sim_config.budgets = budgets;
  sim_config.max_cycles = 4;
  sim_config.duration = seconds(60);
  sim_config.demand_factory = demand_for;
  const auto sim_result = sim::run_experiment(sim_config);
  ASSERT_TRUE(sim_result.is_ok()) << sim_result.status();

  transport::InProcNetwork network;
  runtime::ThreeLevelTreeOptions live_options;
  live_options.stages = 8;
  live_options.aggregators = 2;
  live_options.stages_per_job = 4;
  live_options.budgets = budgets;
  live_options.demand = demand_for;
  runtime::ThreeLevelTree tree(network, live_options);
  ASSERT_TRUE(tree.start().is_ok());
  ASSERT_TRUE(tree.root().run_cycles(4).is_ok());

  ASSERT_EQ(sim_result->final_data_limits.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const double sim_data = sim_result->final_data_limits[i];
    const auto live_data = tree.stage_limit(StageId{i}, stage::Dimension::kData);
    ASSERT_TRUE(live_data.is_ok());
    EXPECT_NEAR(*live_data, sim_data, std::abs(sim_data) * 0.01 + 0.5)
        << "stage " << i;
    const double sim_meta = sim_result->final_meta_limits[i];
    const auto live_meta = tree.stage_limit(StageId{i}, stage::Dimension::kMeta);
    ASSERT_TRUE(live_meta.is_ok());
    EXPECT_NEAR(*live_meta, sim_meta, std::abs(sim_meta) * 0.01 + 0.5)
        << "stage " << i << " (meta)";
  }
}

}  // namespace
}  // namespace sds
