#include "sim/phase_gate.h"

#include <gtest/gtest.h>

#include "fault/plan.h"

namespace sds::sim {
namespace {

/// A compiled plan with the given quorum and extension budget; the drop
/// probability only keeps the plan non-empty.
fault::CompiledPlan plan(double quorum, std::size_t extensions) {
  fault::FaultPlan p;
  p.quorum = quorum;
  p.max_deadline_extensions = extensions;
  p.drop_probability = 0.01;
  return fault::CompiledPlan::compile(p, 4, 0, seconds(1));
}

TEST(PhaseGateTest, ClosesWhenEveryReplyIsIn) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(3);
  gate.arm(3);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    EXPECT_FALSE(gate.complete());
    EXPECT_TRUE(gate.accept(slot, 3));
    EXPECT_TRUE(gate.seen(slot));
  }
  EXPECT_TRUE(gate.complete());
  EXPECT_EQ(gate.missing(), 0u);
}

TEST(PhaseGateTest, DuplicateReplyIsRefused) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(2);
  gate.arm(1);
  EXPECT_TRUE(gate.accept(0, 1));
  EXPECT_FALSE(gate.accept(0, 1));
  EXPECT_EQ(gate.missing(), 1u);
  EXPECT_FALSE(gate.complete());
}

TEST(PhaseGateTest, ReplyStampedWithOlderCycleIsRefused) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(2);
  gate.arm(5);
  EXPECT_FALSE(gate.accept(0, 4));
  EXPECT_FALSE(gate.seen(0));
  // Restamped while still open: the open cycle's replies are refused too.
  gate.restamp(6);
  EXPECT_FALSE(gate.accept(1, 5));
  EXPECT_TRUE(gate.accept(1, 6));
  EXPECT_EQ(gate.missing(), 1u);
}

TEST(PhaseGateTest, ReplyAfterCloseIsRefused) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(2);
  gate.arm(2);
  EXPECT_TRUE(gate.accept(0, 2));
  gate.close();
  EXPECT_FALSE(gate.accept(1, 2));
  EXPECT_EQ(gate.missing(), 1u);
  EXPECT_EQ(gate.on_deadline(2), PhaseGate::Deadline::kIgnore);
}

TEST(PhaseGateTest, DeadlineBelowQuorumRearmsThenForceClosesDegraded) {
  const auto compiled = plan(0.8, 3);
  PhaseGate gate(&compiled);
  gate.begin(10);
  gate.arm(7);  // quorum: 8 of 10
  for (std::size_t slot = 0; slot < 5; ++slot) EXPECT_TRUE(gate.accept(slot, 7));
  for (std::size_t rearm = 0; rearm < 3; ++rearm) {
    EXPECT_EQ(gate.on_deadline(7), PhaseGate::Deadline::kRearm) << rearm;
  }
  EXPECT_EQ(gate.on_deadline(7), PhaseGate::Deadline::kClose);
  gate.close();
  EXPECT_EQ(gate.missing(), 5u);  // the stale stages of a degraded close
  EXPECT_FALSE(gate.seen(5));
}

TEST(PhaseGateTest, DeadlineAtOrAboveQuorumCloses) {
  const auto compiled = plan(0.8, 3);
  PhaseGate at(&compiled);
  at.begin(10);
  at.arm(1);
  for (std::size_t slot = 0; slot < 8; ++slot) EXPECT_TRUE(at.accept(slot, 1));
  EXPECT_EQ(at.on_deadline(1), PhaseGate::Deadline::kClose);
  EXPECT_EQ(at.missing(), 2u);

  PhaseGate above(&compiled);
  above.begin(10);
  above.arm(1);
  for (std::size_t slot = 0; slot < 9; ++slot) EXPECT_TRUE(above.accept(slot, 1));
  EXPECT_EQ(above.on_deadline(1), PhaseGate::Deadline::kClose);
}

TEST(PhaseGateTest, DeadlineOfAnotherCycleIsIgnored) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(3);
  gate.arm(4);
  EXPECT_EQ(gate.on_deadline(3), PhaseGate::Deadline::kIgnore);
  EXPECT_EQ(gate.on_deadline(4), PhaseGate::Deadline::kRearm);
}

TEST(PhaseGateTest, ExpectingNothingWorks) {
  const auto compiled = plan(0.9, 8);
  PhaseGate gate(&compiled);
  gate.begin(0);
  gate.arm(1);
  EXPECT_TRUE(gate.complete());
  EXPECT_EQ(gate.missing(), 0u);
  EXPECT_EQ(gate.on_deadline(1), PhaseGate::Deadline::kClose);

  PhaseGate unguarded;
  unguarded.begin(0);
  unguarded.arm(1);
  EXPECT_TRUE(unguarded.complete());
  EXPECT_EQ(unguarded.missing(), 0u);
}

TEST(PhaseGateTest, UnguardedGateOnlyCounts) {
  PhaseGate gate;  // fault-free: no mask, no stamp, no deadlines
  gate.begin(2);
  gate.arm(9);
  EXPECT_TRUE(gate.accept(0, 9));
  EXPECT_FALSE(gate.complete());
  EXPECT_TRUE(gate.accept(0, 9));  // no mask, so nothing is refused
  EXPECT_TRUE(gate.complete());
}

TEST(PhaseGateTest, BeginRestartsTheCountWithoutTouchingTheGuard) {
  const auto compiled = plan(1.0, 8);
  PhaseGate gate(&compiled);
  gate.begin(3);
  gate.arm(1);
  EXPECT_TRUE(gate.accept(0, 1));
  // The next cycle's count starts before its request arrives; cycle 1's
  // guard still stands until arm().
  gate.begin(3);
  EXPECT_EQ(gate.missing(), 3u);
  EXPECT_TRUE(gate.accept(1, 1));
  gate.arm(2);
  EXPECT_FALSE(gate.accept(2, 1));
  EXPECT_TRUE(gate.accept(0, 2));
  EXPECT_EQ(gate.missing(), 1u);
}

}  // namespace
}  // namespace sds::sim
