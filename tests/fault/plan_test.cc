// FaultPlan / CompiledPlan unit tests: text-format parsing, field
// validation, deterministic compilation, and the pure message-fate
// function the simulator's replay determinism rests on.
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace sds::fault {
namespace {

TEST(FaultPlanTest, DefaultPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.validate().is_ok());
}

TEST(FaultPlanTest, BuildersMakePlanNonEmpty) {
  FaultPlan plan;
  plan.crash_stage(3, millis(10), millis(5));
  EXPECT_FALSE(plan.empty());
  FaultPlan churny;
  churny.stage_mtbf_s = 30;
  EXPECT_FALSE(churny.empty());
  FaultPlan droppy;
  droppy.drop_probability = 0.01;
  EXPECT_FALSE(droppy.empty());
}

TEST(FaultPlanTest, ValidateRejectsBadFields) {
  FaultPlan plan;
  plan.drop_probability = 0.7;
  plan.duplicate_probability = 0.5;  // sum > 1
  EXPECT_FALSE(plan.validate().is_ok());

  FaultPlan quorum;
  quorum.quorum = 1.5;
  EXPECT_FALSE(quorum.validate().is_ok());
  quorum.quorum = -0.1;
  EXPECT_FALSE(quorum.validate().is_ok());

  FaultPlan timeout;
  timeout.phase_timeout = Nanos{0};
  EXPECT_FALSE(timeout.validate().is_ok());

  FaultPlan slow;
  slow.slow(0, 9, millis(0), millis(10), 0.5);  // multiplier < 1
  EXPECT_FALSE(slow.validate().is_ok());
}

TEST(FaultPlanTest, ParsesEveryDirective) {
  const auto plan = FaultPlan::parse(R"(# full-format fixture
seed 7
quorum 0.9
timeout_ms 15
churn stage mtbf_s 30 downtime_s 5
churn aggregator mtbf_s 120 downtime_s 10
drop 0.01
duplicate 0.005
delay 0.02 200
crash stage 17 at_ms 120 for_ms 500
crash aggregator 0 at_ms 50 for_ms 0
slow 0 99 from_ms 0 until_ms 1000 x 4
partition 100 199 from_ms 50 until_ms 250
)");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->quorum, 0.9);
  EXPECT_EQ(plan->phase_timeout, millis(15));
  EXPECT_DOUBLE_EQ(plan->stage_mtbf_s, 30);
  EXPECT_DOUBLE_EQ(plan->aggregator_mtbf_s, 120);
  EXPECT_DOUBLE_EQ(plan->drop_probability, 0.01);
  EXPECT_DOUBLE_EQ(plan->duplicate_probability, 0.005);
  EXPECT_DOUBLE_EQ(plan->delay_probability, 0.02);
  EXPECT_EQ(plan->delay, micros(200));
  ASSERT_EQ(plan->stage_crashes.size(), 1u);
  EXPECT_EQ(plan->stage_crashes[0].stage, 17u);
  EXPECT_EQ(plan->stage_crashes[0].at, millis(120));
  EXPECT_EQ(plan->stage_crashes[0].down_for, millis(500));
  ASSERT_EQ(plan->aggregator_crashes.size(), 1u);
  EXPECT_EQ(plan->aggregator_crashes[0].down_for, Nanos{0});  // forever
  ASSERT_EQ(plan->slow_windows.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->slow_windows[0].multiplier, 4);
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].first_stage, 100u);
}

TEST(FaultPlanTest, ParseReportsLineNumbers) {
  const auto plan = FaultPlan::parse("seed 1\nfrobnicate 3\n");
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.status().message().find("line 2"), std::string::npos)
      << plan.status();
}

/// `directive`, parsed as line 2 of a plan, is refused because a time in
/// it does not fit in Nanos, and the message names the line.
void expect_out_of_range(const std::string& directive) {
  const auto plan = FaultPlan::parse("seed 1\n" + directive + "\n");
  ASSERT_FALSE(plan.is_ok()) << directive;
  const std::string& message = plan.status().message();
  EXPECT_NE(message.find("line 2: "), std::string::npos) << plan.status();
  EXPECT_NE(message.find("out of range"), std::string::npos) << plan.status();
}

TEST(FaultPlanTest, TimeoutBeyondNanosIsRefused) {
  expect_out_of_range("timeout_ms 1e13");
  expect_out_of_range("timeout_ms -1e300");
  // Just inside the range is kept as written.
  const auto plan = FaultPlan::parse("timeout_ms 9e12\n");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  EXPECT_EQ(plan->phase_timeout, Nanos{9'000'000'000'000'000'000});
}

TEST(FaultPlanTest, DelayBeyondNanosIsRefused) {
  expect_out_of_range("delay 0.1 1e300");
}

TEST(FaultPlanTest, CrashTimesBeyondNanosAreRefused) {
  expect_out_of_range("crash stage 1 at_ms 1e300 for_ms 0");
  expect_out_of_range("crash aggregator 0 at_ms 5 for_ms 1e300");
}

TEST(FaultPlanTest, SlowWindowBeyondNanosIsRefused) {
  expect_out_of_range("slow 0 3 from_ms -1e300 until_ms 5 x 2");
  expect_out_of_range("slow 0 3 from_ms 0 until_ms 1e300 x 2");
}

TEST(FaultPlanTest, PartitionWindowBeyondNanosIsRefused) {
  expect_out_of_range("partition 0 1 from_ms -1e300 until_ms 5");
  expect_out_of_range("partition 0 1 from_ms 0 until_ms 1e300");
}

TEST(FaultPlanTest, LoadMissingFileIsNotFound) {
  const auto plan = FaultPlan::load("/nonexistent/fault.plan");
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST(CompiledPlanTest, ScriptedCrashesGateUp) {
  FaultPlan plan;
  plan.crash_stage(2, millis(10), millis(5));
  plan.crash_aggregator(1, millis(20), Nanos{0});  // never returns
  const auto compiled = CompiledPlan::compile(plan, 8, 2, seconds(1));
  EXPECT_TRUE(compiled.stage_up(2, millis(9)));
  EXPECT_FALSE(compiled.stage_up(2, millis(10)));
  EXPECT_FALSE(compiled.stage_up(2, millis(14)));
  EXPECT_TRUE(compiled.stage_up(2, millis(15)));
  EXPECT_TRUE(compiled.stage_up(3, millis(12)));  // neighbours unaffected
  EXPECT_TRUE(compiled.aggregator_up(1, millis(19)));
  EXPECT_FALSE(compiled.aggregator_up(1, millis(20)));
  EXPECT_FALSE(compiled.aggregator_up(1, seconds(100)));
  EXPECT_EQ(compiled.total_outages(), 2u);
  ASSERT_EQ(compiled.stage_outages(2).size(), 1u);
  EXPECT_EQ(compiled.stage_outages(2)[0].from, millis(10));
  EXPECT_EQ(compiled.stage_outages(2)[0].until, millis(15));
  ASSERT_EQ(compiled.aggregator_outages(1).size(), 1u);
  EXPECT_EQ(compiled.aggregator_outages(1)[0].until, CompiledPlan::kNever);
}

TEST(CompiledPlanTest, CrashEndingBeyondNanosNeverEnds) {
  // Start and length each fit in Nanos; their sum does not.
  FaultPlan plan;
  plan.crash_stage(1, Nanos{9'000'000'000'000'000'000},
                   Nanos{9'000'000'000'000'000'000});
  const auto compiled = CompiledPlan::compile(plan, 4, 0, seconds(1));
  ASSERT_EQ(compiled.stage_outages(1).size(), 1u);
  EXPECT_EQ(compiled.stage_outages(1)[0].until, CompiledPlan::kNever);
  EXPECT_FALSE(compiled.stage_up(1, Nanos{9'100'000'000'000'000'000}));
}

TEST(CompiledPlanTest, SlowAndPartitionWindows) {
  FaultPlan plan;
  plan.slow(0, 3, millis(10), millis(20), 4.0);
  plan.partition(4, 7, millis(5), millis(15));
  const auto compiled = CompiledPlan::compile(plan, 8, 0, seconds(1));
  EXPECT_DOUBLE_EQ(compiled.service_multiplier(2, millis(12)), 4.0);
  EXPECT_DOUBLE_EQ(compiled.service_multiplier(2, millis(25)), 1.0);
  EXPECT_DOUBLE_EQ(compiled.service_multiplier(5, millis(12)), 1.0);
  EXPECT_TRUE(compiled.partitioned(5, millis(10)));
  EXPECT_FALSE(compiled.partitioned(5, millis(20)));
  EXPECT_FALSE(compiled.partitioned(2, millis(10)));
}

TEST(CompiledPlanTest, ChurnIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 11;
  plan.stage_mtbf_s = 0.05;  // dense churn inside a 1 s horizon
  plan.stage_downtime_s = 0.01;
  const auto a = CompiledPlan::compile(plan, 16, 0, seconds(1));
  const auto b = CompiledPlan::compile(plan, 16, 0, seconds(1));
  EXPECT_GT(a.total_outages(), 0u);
  EXPECT_EQ(a.total_outages(), b.total_outages());
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(a.stage_outages(i).size(), b.stage_outages(i).size());
    for (std::size_t k = 0; k < a.stage_outages(i).size(); ++k) {
      EXPECT_EQ(a.stage_outages(i)[k].from, b.stage_outages(i)[k].from);
      EXPECT_EQ(a.stage_outages(i)[k].until, b.stage_outages(i)[k].until);
    }
  }
  plan.seed = 12;
  const auto c = CompiledPlan::compile(plan, 16, 0, seconds(1));
  bool differs = c.total_outages() != a.total_outages();
  for (std::size_t i = 0; !differs && i < 16; ++i) {
    differs = a.stage_outages(i).size() != c.stage_outages(i).size() ||
              (!a.stage_outages(i).empty() &&
               a.stage_outages(i)[0].from != c.stage_outages(i)[0].from);
  }
  EXPECT_TRUE(differs) << "different seeds produced identical churn";
}

TEST(CompiledPlanTest, ChurnBeyondNanosStopsAtTheHorizon) {
  // A failure interval too long for Nanos: the first arrival lies far
  // past the horizon, so the expansion ends with no outage.
  FaultPlan rare;
  rare.stage_mtbf_s = 1e12;
  rare.stage_downtime_s = 1;
  EXPECT_EQ(CompiledPlan::compile(rare, 4, 0, seconds(1)).total_outages(), 0u);

  // An outage too long for Nanos never ends.
  FaultPlan sticky;
  sticky.stage_mtbf_s = 0.01;
  sticky.stage_downtime_s = 1e300;
  const auto compiled = CompiledPlan::compile(sticky, 4, 0, seconds(1));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(compiled.stage_outages(i).size(), 1u) << i;
    EXPECT_EQ(compiled.stage_outages(i)[0].until, CompiledPlan::kNever);
    EXPECT_FALSE(compiled.stage_up(i, seconds(1) - Nanos{1}));
  }
}

TEST(CompiledPlanTest, MessageFateIsPureAndCoversAllFates) {
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_probability = 0.2;
  plan.duplicate_probability = 0.2;
  plan.delay_probability = 0.2;
  const auto compiled = CompiledPlan::compile(plan, 4, 0, seconds(1));
  std::set<MessageFate> seen;
  for (std::uint64_t cycle = 0; cycle < 64; ++cycle) {
    for (std::uint64_t entity = 0; entity < 4; ++entity) {
      const MessageFate fate =
          compiled.message_fate(MessageKind::kCollectReply, cycle, entity);
      // Pure: the same key always draws the same fate.
      EXPECT_EQ(fate,
                compiled.message_fate(MessageKind::kCollectReply, cycle, entity));
      seen.insert(fate);
      // Kinds draw independent streams; at these rates at least one key
      // must differ between kinds (checked in aggregate below).
    }
  }
  EXPECT_EQ(seen.size(), 4u) << "expected all four fates at p=0.2 each";
}

TEST(CompiledPlanTest, NoMessageFaultsAlwaysDeliver) {
  FaultPlan plan;
  plan.crash_stage(0, millis(1));
  const auto compiled = CompiledPlan::compile(plan, 4, 0, seconds(1));
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    EXPECT_EQ(compiled.message_fate(MessageKind::kEnforceAck, cycle, 1),
              MessageFate::kDeliver);
  }
}

TEST(CompiledPlanTest, QuorumCountCeilsAndClamps) {
  FaultPlan plan;
  plan.quorum = 0.9;
  plan.drop_probability = 0.01;
  const auto compiled = CompiledPlan::compile(plan, 4, 0, seconds(1));
  EXPECT_EQ(compiled.quorum_count(0), 0u);
  EXPECT_EQ(compiled.quorum_count(1), 1u);
  EXPECT_EQ(compiled.quorum_count(10), 9u);
  EXPECT_EQ(compiled.quorum_count(11), 10u);  // ceil(9.9)
  FaultPlan all;
  all.drop_probability = 0.01;  // quorum defaults to 1.0
  const auto strict = CompiledPlan::compile(all, 4, 0, seconds(1));
  EXPECT_EQ(strict.quorum_count(10), 10u);
  // The free function is the one formula both executors call.
  EXPECT_EQ(quorum_count(0.9, 0), 0u);
  EXPECT_EQ(quorum_count(0.9, 11), 10u);
  EXPECT_EQ(quorum_count(0.01, 5), 1u);  // clamped up to one reply
  EXPECT_EQ(quorum_count(1.0, 7), 7u);
  EXPECT_EQ(quorum_count(0.5, 3), 2u);  // ceil(1.5)
  for (std::size_t expected = 0; expected < 40; ++expected) {
    EXPECT_EQ(quorum_count(0.9, expected), compiled.quorum_count(expected));
  }
}

TEST(CompiledPlanTest, LastStageRestartBefore) {
  FaultPlan plan;
  plan.crash_stage(1, millis(10), millis(5));
  plan.crash_stage(1, millis(40), millis(5));
  const auto compiled = CompiledPlan::compile(plan, 4, 0, seconds(1));
  EXPECT_EQ(compiled.last_stage_restart_before(1, millis(9)), Nanos{-1});
  EXPECT_EQ(compiled.last_stage_restart_before(1, millis(20)), millis(15));
  EXPECT_EQ(compiled.last_stage_restart_before(1, millis(50)), millis(45));
  EXPECT_EQ(compiled.last_stage_restart_before(0, millis(50)), Nanos{-1});
}

}  // namespace
}  // namespace sds::fault
