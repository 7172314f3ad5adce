#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/span_tracer.h"

namespace sds::sim {
namespace {

ExperimentConfig quick(std::size_t stages, std::size_t aggregators = 0) {
  ExperimentConfig config;
  config.num_stages = stages;
  config.num_aggregators = aggregators;
  config.stages_per_job = 10;
  config.duration = millis(200);
  config.max_cycles = 20;
  return config;
}

TEST(ExperimentTest, FlatRunsCycles) {
  auto result = run_experiment(quick(50));
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->cycles, 0u);
  EXPECT_GT(result->stats.mean_total_ms(), 0.0);
  EXPECT_GT(result->elapsed, Nanos{0});
}

TEST(ExperimentTest, ZeroStagesRejected) {
  auto result = run_experiment(quick(0));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, PhaseBreakdownSumsToTotal) {
  auto result = run_experiment(quick(100));
  ASSERT_TRUE(result.is_ok());
  const auto& stats = result->stats;
  EXPECT_NEAR(stats.mean_collect_ms() + stats.mean_compute_ms() +
                  stats.mean_enforce_ms(),
              stats.mean_total_ms(), stats.mean_total_ms() * 0.02);
}

TEST(ExperimentTest, FlatConnectionCapEnforced) {
  ExperimentConfig config = quick(2501);
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kResourceExhausted);
  config.num_stages = 2500;
  config.max_cycles = 1;
  EXPECT_TRUE(run_experiment(config).is_ok());
}

TEST(ExperimentTest, LeafWithoutStagesClosesItsCollectAtOnce) {
  // Three aggregators or peers over two stages: one of them owns no
  // stage, and the cycle must not wait for a reply that never comes.
  for (const bool coordinated : {false, true}) {
    ExperimentConfig config = quick(2);
    (coordinated ? config.coordinated_peers : config.num_aggregators) = 3;
    config.max_cycles = 5;
    const auto result = run_experiment(config);
    ASSERT_TRUE(result.is_ok()) << result.status();
    EXPECT_EQ(result->cycles, 5u) << coordinated;
    for (const double limit : result->final_data_limits) {
      EXPECT_GT(limit, 0.0) << coordinated;  // both stages got a rule
    }
  }
}

TEST(ExperimentTest, HierAllowsBeyondFlatCap) {
  ExperimentConfig config = quick(4000, 2);
  config.max_cycles = 2;
  EXPECT_TRUE(run_experiment(config).is_ok());
}

TEST(ExperimentTest, HierAggregatorSubtreeCapEnforced) {
  ExperimentConfig config = quick(6000, 2);  // 3000 per aggregator > 2500
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  const auto a = run_experiment(quick(80));
  const auto b = run_experiment(quick(80));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->cycles, b->cycles);
  EXPECT_DOUBLE_EQ(a->stats.mean_total_ms(), b->stats.mean_total_ms());
  EXPECT_DOUBLE_EQ(a->final_data_limit_sum, b->final_data_limit_sum);
  EXPECT_EQ(a->events_executed, b->events_executed);
}

TEST(ExperimentTest, DifferentSeedsChangeDemands) {
  ExperimentConfig config_a = quick(80);
  ExperimentConfig config_b = quick(80);
  config_b.seed = 99;
  const auto a = run_experiment(config_a);
  const auto b = run_experiment(config_b);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a->final_data_limit_sum, b->final_data_limit_sum);
}

TEST(ExperimentTest, EnforcedLimitsRespectBudget) {
  // After the control loop settles, the sum of enforced per-stage data
  // limits never exceeds the configured PFS budget (plus PSFA headroom
  // slack when demand is below budget).
  ExperimentConfig config = quick(100);
  config.budgets = {20'000.0, 2'000.0};
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  // Total demand ≈ 100 × ~1000 = 100k data ops/s >> 20k budget: the
  // budget binds.
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.001);
  EXPECT_GE(result->final_data_limit_sum, 20'000.0 * 0.95);
  EXPECT_LE(result->final_meta_limit_sum, 2'000.0 * 1.001);
}

TEST(ExperimentTest, HierEnforcedLimitsRespectBudget) {
  ExperimentConfig config = quick(100, 4);
  config.budgets = {20'000.0, 2'000.0};
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.001);
  EXPECT_GE(result->final_data_limit_sum, 20'000.0 * 0.95);
}

TEST(ExperimentTest, LatencyGrowsWithScale) {
  ExperimentConfig small = quick(50);
  ExperimentConfig large = quick(500);
  const auto a = run_experiment(small);
  const auto b = run_experiment(large);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(b->stats.mean_total_ms(), 3 * a->stats.mean_total_ms());
}

TEST(ExperimentTest, EnforceDominatesCollectDominatesCompute) {
  // The paper's flat-phase ordering (Fig. 4).
  const auto result = run_experiment(quick(500));
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result->stats.mean_enforce_ms(), result->stats.mean_collect_ms());
  EXPECT_GT(result->stats.mean_collect_ms(), result->stats.mean_compute_ms());
}

TEST(ExperimentTest, MoreAggregatorsReduceLatency) {
  ExperimentConfig few = quick(2000, 2);
  ExperimentConfig many = quick(2000, 8);
  few.max_cycles = many.max_cycles = 5;
  const auto a = run_experiment(few);
  const auto b = run_experiment(many);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_LT(b->stats.mean_total_ms(), a->stats.mean_total_ms());
  // Compute phase is aggregator-count-independent (Fig. 5).
  EXPECT_NEAR(b->stats.mean_compute_ms(), a->stats.mean_compute_ms(),
              a->stats.mean_compute_ms() * 0.05);
}

TEST(ExperimentTest, HierarchyAddsLatencyAtEqualScale) {
  // Fig. 6: flat vs hierarchical with one aggregator at the same size.
  ExperimentConfig flat = quick(500);
  ExperimentConfig hier = quick(500, 1);
  flat.max_cycles = hier.max_cycles = 5;
  const auto a = run_experiment(flat);
  const auto b = run_experiment(hier);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(b->stats.mean_total_ms(), a->stats.mean_total_ms());
  // Observation #7: compute shrinks under the hierarchy.
  EXPECT_LT(b->stats.mean_compute_ms(), a->stats.mean_compute_ms());
}

TEST(ExperimentTest, SerialFanoutSlowerThanParallel) {
  ExperimentConfig parallel = quick(1000, 4);
  ExperimentConfig serial = quick(1000, 4);
  serial.parallel_fanout = false;
  parallel.max_cycles = serial.max_cycles = 3;
  const auto a = run_experiment(parallel);
  const auto b = run_experiment(serial);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(b->stats.mean_total_ms(), a->stats.mean_total_ms());
}

TEST(ExperimentTest, PassthroughShiftsComputeToGlobal) {
  ExperimentConfig preagg = quick(1000, 4);
  ExperimentConfig passthrough = quick(1000, 4);
  passthrough.preaggregate = false;
  preagg.max_cycles = passthrough.max_cycles = 3;
  const auto a = run_experiment(preagg);
  const auto b = run_experiment(passthrough);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Without pre-aggregation the global controller must merge raw
  // entries itself: its compute phase grows (Observation #7 inverted).
  EXPECT_GT(b->stats.mean_compute_ms(), a->stats.mean_compute_ms());
}

TEST(ExperimentTest, LocalDecisionsShrinkGlobalCompute) {
  ExperimentConfig central = quick(1000, 4);
  ExperimentConfig local = quick(1000, 4);
  local.local_decisions = true;
  central.max_cycles = local.max_cycles = 3;
  const auto a = run_experiment(central);
  const auto b = run_experiment(local);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_LT(b->stats.mean_compute_ms(), a->stats.mean_compute_ms());
  EXPECT_LT(b->global.cpu_percent, a->global.cpu_percent);
}

TEST(ExperimentTest, LocalDecisionsStillRespectBudget) {
  ExperimentConfig config = quick(100, 4);
  config.local_decisions = true;
  config.budgets = {20'000.0, 2'000.0};
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.02);
}

TEST(ExperimentTest, ResourceUsagePopulated) {
  const auto flat = run_experiment(quick(200));
  ASSERT_TRUE(flat.is_ok());
  EXPECT_GT(flat->global.cpu_percent, 0.0);
  EXPECT_GT(flat->global.memory_gb, 0.0);
  EXPECT_GT(flat->global.transmitted_mbps, 0.0);
  EXPECT_GT(flat->global.received_mbps, 0.0);
  EXPECT_DOUBLE_EQ(flat->aggregator.cpu_percent, 0.0);  // no aggregators

  const auto hier = run_experiment(quick(200, 2));
  ASSERT_TRUE(hier.is_ok());
  EXPECT_GT(hier->aggregator.cpu_percent, 0.0);
  EXPECT_GT(hier->aggregator.memory_gb, 0.0);
}

TEST(ExperimentTest, GlobalMemoryGrowsWithStages) {
  const auto small = run_experiment(quick(100));
  const auto large = run_experiment(quick(1000));
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  EXPECT_GT(large->global.memory_gb, small->global.memory_gb);
}

TEST(ExperimentTest, MaxCyclesCapsExecution) {
  ExperimentConfig config = quick(50);
  config.max_cycles = 7;
  config.duration = seconds(60);
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->cycles, 7u);
}

TEST(ExperimentTest, CustomDemandFactoryUsed) {
  ExperimentConfig config = quick(20);
  config.budgets = {1e9, 1e9};  // effectively uncapped
  config.demand_factory = [](StageId, stage::Dimension dim) {
    return [dim](Nanos) {
      return dim == stage::Dimension::kData ? 777.0 : 77.0;
    };
  };
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  // With a huge budget PSFA grants headroom × demand to each stage.
  EXPECT_NEAR(result->final_data_limit_sum, 20 * 777.0 * 1.2, 20.0);
}

// ---------------------------------------------------------------------------
// Three-level hierarchies (global -> super-aggregators -> aggregators)

TEST(DeepHierarchyTest, RunsCycles) {
  ExperimentConfig config = quick(400, 8);
  config.num_super_aggregators = 2;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->cycles, 0u);
  EXPECT_GT(result->super_aggregator.cpu_percent, 0.0);
  EXPECT_GT(result->aggregator.cpu_percent, 0.0);
}

TEST(DeepHierarchyTest, BudgetRespected) {
  ExperimentConfig config = quick(200, 8);
  config.num_super_aggregators = 4;
  config.budgets = {20'000.0, 2'000.0};
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.001);
  EXPECT_GE(result->final_data_limit_sum, 20'000.0 * 0.95);
}

TEST(DeepHierarchyTest, MatchesTwoLevelAllocations) {
  // Adding a control level must not change the decisions, only latency.
  ExperimentConfig two_level = quick(200, 8);
  two_level.budgets = {20'000.0, 2'000.0};
  ExperimentConfig three_level = two_level;
  three_level.num_super_aggregators = 2;
  const auto a = run_experiment(two_level);
  const auto b = run_experiment(three_level);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->final_data_limits.size(), b->final_data_limits.size());
  for (std::size_t i = 0; i < a->final_data_limits.size(); ++i) {
    EXPECT_NEAR(a->final_data_limits[i], b->final_data_limits[i], 1e-6)
        << "stage " << i;
  }
}

TEST(DeepHierarchyTest, ThirdLevelAddsLatency) {
  ExperimentConfig two_level = quick(1000, 8);
  two_level.max_cycles = 3;
  ExperimentConfig three_level = two_level;
  three_level.num_super_aggregators = 2;
  const auto a = run_experiment(two_level);
  const auto b = run_experiment(three_level);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(b->stats.mean_total_ms(), a->stats.mean_total_ms());
}

TEST(DeepHierarchyTest, EnablesScaleBeyondTwoLevelCap) {
  // With a tiny cap the 2-level tree cannot cover the cluster but a
  // 3-level tree can.
  ExperimentConfig config = quick(10'000, 64);
  config.profile.max_connections_per_node = 64;
  config.max_cycles = 1;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kResourceExhausted);

  config.num_aggregators = 200;
  config.num_super_aggregators = 40;
  EXPECT_TRUE(run_experiment(config).is_ok());
}

TEST(DeepHierarchyTest, RequiresCompatibleModes) {
  ExperimentConfig config = quick(200, 8);
  config.num_super_aggregators = 2;
  config.preaggregate = false;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);

  config.preaggregate = true;
  config.local_decisions = true;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);

  config.local_decisions = false;
  config.num_super_aggregators = 16;  // more supers than aggregators
  config.num_aggregators = 8;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeepHierarchyTest, Deterministic) {
  ExperimentConfig config = quick(300, 6);
  config.num_super_aggregators = 3;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->events_executed, b->events_executed);
  EXPECT_DOUBLE_EQ(a->stats.mean_total_ms(), b->stats.mean_total_ms());
}

// ---------------------------------------------------------------------------
// Coordinated flat multi-controller mode (paper §VI future work #1)

TEST(CoordinatedSimTest, RunsCycles) {
  ExperimentConfig config = quick(200);
  config.coordinated_peers = 4;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->cycles, 0u);
  EXPECT_GT(result->aggregator.cpu_percent, 0.0);  // peer usage reported
}

TEST(CoordinatedSimTest, MutuallyExclusiveWithAggregators) {
  ExperimentConfig config = quick(200, 2);
  config.coordinated_peers = 2;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CoordinatedSimTest, ConnectionCapIncludesPeerLinks) {
  ExperimentConfig config = quick(10'000);
  config.coordinated_peers = 2;  // 5000 stages + 1 peer conn > 2500 cap
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kResourceExhausted);
  config.coordinated_peers = 4;  // 2500 + 3 > 2500: still over
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kResourceExhausted);
  config.coordinated_peers = 5;  // 2000 + 4 <= 2500
  config.max_cycles = 1;
  EXPECT_TRUE(run_experiment(config).is_ok());
}

TEST(CoordinatedSimTest, BudgetRespectedAcrossPeers) {
  ExperimentConfig config = quick(100);
  config.coordinated_peers = 4;
  config.budgets = {20'000.0, 2'000.0};
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.001);
  EXPECT_GE(result->final_data_limit_sum, 20'000.0 * 0.95);
}

TEST(CoordinatedSimTest, Deterministic) {
  ExperimentConfig config = quick(120);
  config.coordinated_peers = 3;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->events_executed, b->events_executed);
  EXPECT_DOUBLE_EQ(a->stats.mean_total_ms(), b->stats.mean_total_ms());
}

TEST(CoordinatedSimTest, MatchesFlatAllocations) {
  // The coordinated design's raison d'être: identical global outcomes to
  // a single flat controller over the same demands.
  ExperimentConfig flat_config = quick(100);
  flat_config.budgets = {20'000.0, 2'000.0};
  ExperimentConfig coord_config = flat_config;
  coord_config.coordinated_peers = 4;
  const auto flat_result = run_experiment(flat_config);
  const auto coord_result = run_experiment(coord_config);
  ASSERT_TRUE(flat_result.is_ok());
  ASSERT_TRUE(coord_result.is_ok());
  EXPECT_NEAR(coord_result->final_data_limit_sum,
              flat_result->final_data_limit_sum,
              flat_result->final_data_limit_sum * 0.02);
}

TEST(CoordinatedSimTest, FillsCollectWireCounters) {
  // Peers collect on the tree's stage legs, so every accepted stage
  // report is counted as a full frame.
  ExperimentConfig config = quick(120);
  config.coordinated_peers = 3;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result->collect_frames_full, result->cycles * 120);
  EXPECT_EQ(result->collect_frames_delta, 0u);
  EXPECT_EQ(result->collect_wire_bytes, result->collect_wire_bytes_full);
  EXPECT_GT(result->collect_wire_bytes, 0u);
}

TEST(CoordinatedSimTest, PeerHopSpansLandOnNamedTracks) {
  telemetry::SpanTracer tracer;
  ExperimentConfig config = quick(120);
  config.coordinated_peers = 3;
  config.tracer = &tracer;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  const auto names = tracer.track_names();
  std::uint64_t hops = 0;
  for (const auto& span : tracer.snapshot()) {
    if (span.name != "agg.collect") continue;
    ++hops;
    ASSERT_TRUE(names.contains(span.track)) << span.track;
    EXPECT_EQ(names.at(span.track), "peer " + std::to_string(span.track - 1));
  }
  EXPECT_EQ(hops, result->cycles * 3);  // one local collect per peer
}

TEST(CoordinatedSimTest, FasterThanHierarchyAtScale) {
  ExperimentConfig hier = quick(5000, 4);
  hier.max_cycles = 3;
  ExperimentConfig coord = quick(5000);
  coord.coordinated_peers = 4;
  coord.max_cycles = 3;
  const auto h = run_experiment(hier);
  const auto c = run_experiment(coord);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(c.is_ok());
  // No top-level per-stage rule building: the coordinated design wins.
  EXPECT_LT(c->stats.mean_total_ms(), h->stats.mean_total_ms());
}

// ---- Columnar store / delta-collect path ----------------------------

TEST(StoreCollectTest, FlatStorePathBitIdenticalToLegacyBatch) {
  ExperimentConfig legacy = quick(120);
  legacy.store_collect = false;
  ExperimentConfig store = quick(120);
  store.store_collect = true;
  const auto a = run_experiment(legacy);
  const auto b = run_experiment(store);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->final_data_limits.size(), b->final_data_limits.size());
  for (std::size_t i = 0; i < a->final_data_limits.size(); ++i) {
    ASSERT_EQ(a->final_data_limits[i], b->final_data_limits[i]) << i;
    ASSERT_EQ(a->final_meta_limits[i], b->final_meta_limits[i]) << i;
  }
  EXPECT_EQ(a->final_data_limit_sum, b->final_data_limit_sum);
}

TEST(StoreCollectTest, FullRecomputeAblationBitIdentical) {
  ExperimentConfig incremental = quick(150);
  ExperimentConfig full = quick(150);
  full.psfa_full_recompute = true;
  const auto a = run_experiment(incremental);
  const auto b = run_experiment(full);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_EQ(a->final_data_limits.size(), b->final_data_limits.size());
  for (std::size_t i = 0; i < a->final_data_limits.size(); ++i) {
    ASSERT_EQ(a->final_data_limits[i], b->final_data_limits[i]) << i;
    ASSERT_EQ(a->final_meta_limits[i], b->final_meta_limits[i]) << i;
  }
  EXPECT_EQ(a->cycles, b->cycles);
}

TEST(StoreCollectTest, HierStorePathMatchesLegacyWithinTolerance) {
  // Hierarchical summaries are slot-ordered on the store path (vs
  // arrival-ordered legacy): FP sums may differ in the last bit, so the
  // comparison is tight but not bitwise.
  ExperimentConfig legacy = quick(400, 4);
  legacy.store_collect = false;
  ExperimentConfig store = quick(400, 4);
  const auto a = run_experiment(legacy);
  const auto b = run_experiment(store);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NEAR(a->final_data_limit_sum, b->final_data_limit_sum,
              a->final_data_limit_sum * 1e-9);
}

TEST(StoreCollectTest, DeltaCollectBitIdenticalAndCheaperOnTheWire) {
  ExperimentConfig base = quick(200);
  base.max_cycles = 30;
  ExperimentConfig delta = base;
  delta.delta_collect = true;
  const auto a = run_experiment(base);
  const auto b = run_experiment(delta);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Deltas reproduce the full reports bit-for-bit, so decisions match.
  ASSERT_EQ(a->final_data_limits.size(), b->final_data_limits.size());
  for (std::size_t i = 0; i < a->final_data_limits.size(); ++i) {
    ASSERT_EQ(a->final_data_limits[i], b->final_data_limits[i]) << i;
  }
  // Wire accounting: the full-frame path ships what it accounts...
  EXPECT_EQ(a->collect_wire_bytes, a->collect_wire_bytes_full);
  EXPECT_EQ(a->collect_frames_delta, 0u);
  // ...while the delta path ships mostly deltas at a fraction of the
  // bytes (first-cycle refreshes and the periodic stagger stay full).
  EXPECT_GT(b->collect_frames_delta, b->collect_frames_full);
  EXPECT_LT(b->collect_wire_bytes, b->collect_wire_bytes_full);
  EXPECT_EQ(b->collect_wire_bytes_full, a->collect_wire_bytes_full);
}

TEST(StoreCollectTest, DeltaCollectSteadyStateCompressionAtLeast3x) {
  // Past the warmup cycle, low-churn stages drift one field at a time:
  // the aggregate byte ratio must clear the tentpole's 3x floor even
  // with the periodic full refresh mixed in.
  ExperimentConfig config = quick(300);
  config.max_cycles = 50;
  config.delta_collect = true;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_GE(static_cast<double>(result->collect_wire_bytes_full),
            3.0 * static_cast<double>(result->collect_wire_bytes));
}

TEST(StoreCollectTest, DeltaCollectWorksHierPreaggregated) {
  ExperimentConfig config = quick(400, 4);
  config.delta_collect = true;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result->collect_frames_delta, 0u);
  EXPECT_LE(result->final_data_limit_sum,
            config.budgets.data_iops * 1.2 + 1e-6);
}

TEST(StoreCollectTest, DeltaCollectRequiresStorePath) {
  ExperimentConfig config = quick(50);
  config.store_collect = false;
  config.delta_collect = true;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);
  config.store_collect = true;
  config.delta_refresh = 0;
  EXPECT_EQ(run_experiment(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreCollectTest, ActivityThresholdStillRespectsBudget) {
  ExperimentConfig config = quick(100);
  config.budgets = {20'000.0, 2'000.0};
  config.activity_threshold = 25.0;  // ignore small jitter
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result->final_data_limit_sum, 20'000.0 * 1.001);
  EXPECT_GE(result->final_data_limit_sum, 20'000.0 * 0.90);
}

struct ScaleCase {
  std::size_t stages;
  std::size_t aggregators;
};

class ExperimentScaleSweep : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ExperimentScaleSweep, CompletesWithSaneStats) {
  ExperimentConfig config = quick(GetParam().stages, GetParam().aggregators);
  config.max_cycles = 3;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result->cycles, 3u);
  EXPECT_GT(result->stats.mean_total_ms(), 0.0);
  EXPECT_LT(result->stats.mean_total_ms(), 1000.0);
  // Latency CV must be tiny in a deterministic simulator (paper: < 6%).
  EXPECT_LT(result->stats.total().stddev() / result->stats.total().mean(),
            0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ExperimentScaleSweep,
    ::testing::Values(ScaleCase{50, 0}, ScaleCase{500, 0}, ScaleCase{1250, 0},
                      ScaleCase{2500, 0}, ScaleCase{1000, 1},
                      ScaleCase{1000, 2}, ScaleCase{2000, 4},
                      ScaleCase{5000, 4}, ScaleCase{5000, 10}));

}  // namespace
}  // namespace sds::sim
