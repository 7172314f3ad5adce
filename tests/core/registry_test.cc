#include "core/registry.h"

#include <gtest/gtest.h>

namespace sds::core {
namespace {

StageRecord record(std::uint32_t stage, std::uint32_t job) {
  StageRecord r;
  r.info = {StageId{stage}, NodeId{stage}, JobId{job}, "n"};
  r.conn = ConnId{stage};
  return r;
}

TEST(RegistryTest, AddAndFind) {
  Registry registry;
  ASSERT_TRUE(registry.add(record(1, 10)).is_ok());
  EXPECT_EQ(registry.size(), 1u);
  const StageRecord* found = registry.find(StageId{1});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->info.job_id, JobId{10});
  EXPECT_TRUE(registry.contains(StageId{1}));
  EXPECT_FALSE(registry.contains(StageId{2}));
}

TEST(RegistryTest, DuplicateRejected) {
  Registry registry;
  ASSERT_TRUE(registry.add(record(1, 10)).is_ok());
  const Status dup = registry.add(record(1, 11));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(RegistryTest, InvalidStageIdRejected) {
  Registry registry;
  StageRecord r = record(1, 1);
  r.info.stage_id = StageId::invalid();
  EXPECT_EQ(registry.add(r).code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, RemoveUpdatesCounts) {
  Registry registry;
  ASSERT_TRUE(registry.add(record(1, 10)).is_ok());
  ASSERT_TRUE(registry.add(record(2, 10)).is_ok());
  EXPECT_EQ(registry.job_stage_count(JobId{10}), 2u);
  ASSERT_TRUE(registry.remove(StageId{1}).is_ok());
  EXPECT_EQ(registry.job_stage_count(JobId{10}), 1u);
  ASSERT_TRUE(registry.remove(StageId{2}).is_ok());
  EXPECT_EQ(registry.job_stage_count(JobId{10}), 0u);
  EXPECT_EQ(registry.remove(StageId{2}).code(), StatusCode::kNotFound);
}

TEST(RegistryTest, StagesInRegistrationOrder) {
  Registry registry;
  for (const std::uint32_t id : {5u, 1u, 9u, 3u}) {
    ASSERT_TRUE(registry.add(record(id, 0)).is_ok());
  }
  const auto& order = registry.stages();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], StageId{5});
  EXPECT_EQ(order[1], StageId{1});
  EXPECT_EQ(order[2], StageId{9});
  EXPECT_EQ(order[3], StageId{3});
}

TEST(RegistryTest, JobsInFirstSeenOrder) {
  Registry registry;
  ASSERT_TRUE(registry.add(record(1, 7)).is_ok());
  ASSERT_TRUE(registry.add(record(2, 3)).is_ok());
  ASSERT_TRUE(registry.add(record(3, 7)).is_ok());
  const auto jobs = registry.jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], JobId{7});
  EXPECT_EQ(jobs[1], JobId{3});
}

TEST(RegistryTest, ForEachVisitsAllInOrder) {
  Registry registry;
  for (std::uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(registry.add(record(i, i / 3)).is_ok());
  }
  std::uint32_t expected = 0;
  registry.for_each([&](const StageRecord& r) {
    EXPECT_EQ(r.info.stage_id, StageId{expected});
    ++expected;
  });
  EXPECT_EQ(expected, 10u);
}

}  // namespace
}  // namespace sds::core
