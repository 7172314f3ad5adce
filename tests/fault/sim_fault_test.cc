// Fault-injection determinism and degraded-cycle semantics in the
// simulator: a faulted run must be bit-identical across repeated runs
// (injection is a pure function of plan seed, cycle, entity and virtual
// time), crashed stages must surface as degraded cycles with stale-stage
// accounting instead of hangs, and restarts must produce recovery-time
// samples.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "fault/plan.h"
#include "sim/experiment.h"

namespace sds::sim {
namespace {

std::string bits(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  std::ostringstream out;
  out << std::hex << u;
  return std::move(out).str();
}

/// Bit-exact digest of everything a faulted run reports.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.cycles << ';' << r.elapsed.count() << ';' << r.events_executed
      << ';' << bits(r.stats.mean_total_ms()) << ';'
      << bits(r.final_data_limit_sum) << ',' << bits(r.final_meta_limit_sum)
      << ';';
  for (const double v : r.final_data_limits) out << bits(v) << ',';
  out << ';' << r.degraded_cycles << ';' << r.stale_stage_reports << ';'
      << r.faults_injected << ';' << bits(r.mean_recovery_ms) << ';'
      << bits(r.mean_data_utilization);
  return std::move(out).str();
}

ExperimentConfig base_config(std::size_t stages, std::size_t aggregators) {
  ExperimentConfig config;
  config.num_stages = stages;
  config.num_aggregators = aggregators;
  config.stages_per_job = 10;
  config.duration = millis(120);
  config.max_cycles = 12;
  return config;
}

/// A plan exercising every injection class at once.
fault::FaultPlan busy_plan() {
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.quorum = 0.85;
  plan.phase_timeout = millis(2);
  plan.drop_probability = 0.05;
  plan.duplicate_probability = 0.03;
  plan.delay_probability = 0.05;
  plan.delay = micros(137);
  plan.crash_stage(2, millis(5), millis(15));
  plan.slow(0, 5, millis(0), millis(40), 3.0);
  plan.partition(8, 11, millis(10), millis(30));
  plan.stage_mtbf_s = 0.2;
  plan.stage_downtime_s = 0.02;
  return plan;
}

TEST(SimFaultTest, FaultedRunIsBitIdenticalAcrossRepeats) {
  const fault::FaultPlan plan = busy_plan();
  struct Topo {
    const char* name;
    std::size_t stages;
    std::size_t aggregators;
  };
  for (const Topo topo : {Topo{"flat", 60, 0}, Topo{"hier", 64, 4}}) {
    for (const std::uint64_t seed : {42u, 7u}) {
      ExperimentConfig config = base_config(topo.stages, topo.aggregators);
      config.seed = seed;
      config.fault_plan = &plan;
      const auto reference = run_experiment(config);
      ASSERT_TRUE(reference.is_ok())
          << topo.name << ": " << reference.status();
      EXPECT_GT(reference->faults_injected, 0u) << topo.name;
      const auto repeat = run_experiment(config);
      ASSERT_TRUE(repeat.is_ok()) << topo.name;
      EXPECT_EQ(fingerprint(*repeat), fingerprint(*reference))
          << topo.name << " seed=" << seed;
    }
  }
}

TEST(SimFaultTest, PermanentStageCrashDegradesCyclesInsteadOfHanging) {
  ExperimentConfig config = base_config(40, 0);
  fault::FaultPlan plan;
  plan.quorum = 0.9;
  plan.phase_timeout = millis(2);
  plan.crash_stage(3, millis(1));  // never comes back
  config.fault_plan = &plan;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->cycles, 1u);  // progress despite the dead stage
  EXPECT_GT(result->degraded_cycles, 0u);
  EXPECT_GT(result->stale_stage_reports, 0u);
  EXPECT_GT(result->faults_injected, 0u);
  EXPECT_EQ(result->stats.degraded_cycles(), result->degraded_cycles);
  EXPECT_EQ(result->stats.stale_stages(), result->stale_stage_reports);
}

TEST(SimFaultTest, RestartProducesRecoverySample) {
  ExperimentConfig config = base_config(40, 0);
  fault::FaultPlan plan;
  plan.quorum = 0.9;
  plan.phase_timeout = millis(2);
  // Stress cycles run back-to-back (cycle_period = 0), so the whole run
  // covers only a few ms of virtual time; keep the outage inside it.
  plan.crash_stage(5, millis(1), millis(5));
  config.fault_plan = &plan;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->mean_recovery_ms, 0.0);
  EXPECT_GT(result->stats.recovery().count(), 0u);
}

TEST(SimFaultTest, AggregatorCrashMarksWholeSubtreeStale) {
  ExperimentConfig config = base_config(64, 4);
  fault::FaultPlan plan;
  plan.quorum = 0.7;
  plan.phase_timeout = millis(2);
  plan.crash_aggregator(0, millis(1));  // never comes back
  config.fault_plan = &plan;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GT(result->cycles, 1u);
  EXPECT_GT(result->degraded_cycles, 0u);
  // Each degraded cycle loses aggregator 0's 16-stage subtree.
  EXPECT_GE(result->stale_stage_reports, result->degraded_cycles * 16);
}

TEST(SimFaultTest, NullAndEmptyPlansMatchAndReportNothing) {
  ExperimentConfig config = base_config(50, 0);
  const auto bare = run_experiment(config);
  ASSERT_TRUE(bare.is_ok());
  fault::FaultPlan empty;
  config.fault_plan = &empty;  // empty plan: hooks must vanish entirely
  const auto with_empty = run_experiment(config);
  ASSERT_TRUE(with_empty.is_ok());
  EXPECT_EQ(fingerprint(*bare), fingerprint(*with_empty));
  EXPECT_EQ(bare->degraded_cycles, 0u);
  EXPECT_EQ(bare->faults_injected, 0u);
  EXPECT_DOUBLE_EQ(bare->mean_recovery_ms, 0.0);
}

TEST(SimFaultTest, UnsupportedTopologiesRejected) {
  fault::FaultPlan plan;
  plan.drop_probability = 0.01;

  ExperimentConfig coordinated = base_config(40, 0);
  coordinated.coordinated_peers = 2;
  coordinated.fault_plan = &plan;
  EXPECT_EQ(run_experiment(coordinated).status().code(),
            StatusCode::kInvalidArgument);

  ExperimentConfig deep = base_config(64, 4);
  deep.num_super_aggregators = 2;
  deep.fault_plan = &plan;
  EXPECT_EQ(run_experiment(deep).status().code(),
            StatusCode::kInvalidArgument);

  ExperimentConfig serial = base_config(64, 4);
  serial.parallel_fanout = false;
  serial.fault_plan = &plan;
  EXPECT_EQ(run_experiment(serial).status().code(),
            StatusCode::kInvalidArgument);

  ExperimentConfig invalid = base_config(40, 0);
  fault::FaultPlan bad;
  bad.drop_probability = 2.0;
  invalid.fault_plan = &bad;
  EXPECT_EQ(run_experiment(invalid).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimFaultTest, PhaseTimeoutLongerThanTheRunRejected) {
  // Each phase may re-arm its deadline while below quorum, and nothing
  // else bounds the cycle by the run: a plan whose timeout outlasts the
  // run is refused, with both values named, before anything runs.
  for (const char* timeout : {"1e3", "1e5", "9.2233720368e12"}) {
    const auto plan = fault::FaultPlan::parse(
        std::string("timeout_ms ") + timeout + "\ndrop 0.1\n");
    ASSERT_TRUE(plan.is_ok()) << plan.status();
    ExperimentConfig config = base_config(10, 0);
    config.duration = millis(50);
    config.max_cycles = 2;
    config.fault_plan = &*plan;
    const auto result = run_experiment(config);
    ASSERT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << timeout;
    EXPECT_NE(result.status().to_string().find("exceeds the run duration of 50 ms"),
              std::string::npos)
        << result.status();
  }
  // A timeout within the run still runs.
  fault::FaultPlan plan;
  plan.drop_probability = 0.1;
  plan.phase_timeout = millis(15);
  ExperimentConfig config = base_config(10, 0);
  config.duration = millis(50);
  config.max_cycles = 2;
  config.fault_plan = &plan;
  EXPECT_TRUE(run_experiment(config).is_ok());
}

TEST(SimFaultTest, MessageFaultsAloneStillCompleteEveryStage) {
  // Pure message chaos (no crashes): every cycle still terminates and
  // the run stays deterministic.
  ExperimentConfig config = base_config(48, 0);
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.quorum = 0.8;
  plan.phase_timeout = millis(2);
  plan.drop_probability = 0.1;
  plan.duplicate_probability = 0.05;
  plan.delay_probability = 0.1;
  config.fault_plan = &plan;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  ASSERT_TRUE(a.is_ok()) << a.status();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->cycles, config.max_cycles);
  EXPECT_GT(a->faults_injected, 0u);
  EXPECT_EQ(fingerprint(*a), fingerprint(*b));
}

}  // namespace
}  // namespace sds::sim
