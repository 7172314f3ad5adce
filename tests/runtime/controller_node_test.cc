// ControllerNode at every tier: a hand-built 3-level live tree, rules for
// stages a node does not know, a lost controller child's stages, empty
// batches for controller children, stage reports that carry non-finite
// values at the root and below it, and a root whose role flips between
// computing from its store and summarizing it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "three_level_tree.h"

namespace sds::runtime {
namespace {

template <typename Pred>
bool eventually(Pred pred, Nanos deadline = seconds(5)) {
  const Nanos until = SystemClock::instance().now() + deadline;
  while (SystemClock::instance().now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ControllerNodeTest, ThreeLevelTreeServesEveryTier) {
  transport::InProcNetwork net;
  ThreeLevelTree tree(net, {});  // 8 stages in 2 jobs under 2 aggregators
  ASSERT_TRUE(tree.start().is_ok());

  // Every registration reached the root through two forwarding hops.
  EXPECT_EQ(tree.root().registered_stages(), 8u);
  EXPECT_EQ(tree.super().registered_stages(), 8u);
  EXPECT_EQ(tree.root().known_aggregators(), 1u);
  EXPECT_EQ(tree.super().known_aggregators(), 2u);
  for (auto& agg : tree.aggregators()) {
    EXPECT_EQ(agg->registered_stages(), 4u);
    EXPECT_EQ(agg->known_aggregators(), 0u);
  }

  constexpr std::uint64_t kCycles = 5;
  ASSERT_TRUE(tree.root().run_cycles(kCycles).is_ok());
  EXPECT_EQ(tree.root().stats().cycles(), kCycles);
  EXPECT_EQ(tree.root().stats().degraded_cycles(), 0u);
  EXPECT_EQ(tree.super().cycles_served(), kCycles);
  for (auto& agg : tree.aggregators()) {
    EXPECT_EQ(agg->cycles_served(), kCycles);
  }
  // Only the root drives cycles.
  EXPECT_EQ(tree.super().run_cycle().status().code(),
            StatusCode::kFailedPrecondition);

  // Demand (8 × 1000 data ops/s) exceeds the budget, so the enforced
  // limits share it out without exceeding it.
  double data_sum = 0;
  double meta_sum = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto data = tree.stage_limit(StageId{i}, stage::Dimension::kData);
    const auto meta = tree.stage_limit(StageId{i}, stage::Dimension::kMeta);
    ASSERT_TRUE(data.is_ok() && meta.is_ok()) << "stage " << i;
    EXPECT_GT(*data, 0.0) << "stage " << i;
    data_sum += *data;
    meta_sum += *meta;
  }
  EXPECT_LE(data_sum, 4000.0 * (1 + 1e-9));
  EXPECT_GE(data_sum, 4000.0 * 0.9);
  EXPECT_LE(meta_sum, 400.0 * (1 + 1e-9));
}

/// A scripted parent: records the interior node's connection from its
/// introduction and the `applied` count of the merged acks it sends up.
struct ScriptedParent {
  explicit ScriptedParent(transport::InProcNetwork& net)
      : endpoint(net.bind("parent", {}).value()) {
    endpoint->set_frame_handler([this](ConnId conn, wire::Frame frame) {
      using proto::MessageType;
      switch (static_cast<MessageType>(frame.type)) {
        case MessageType::kHeartbeat:
          child.store(conn.value());
          break;
        case MessageType::kEnforceAck:
          applied.store(
              static_cast<int>(proto::from_frame<proto::EnforceAck>(frame)
                                   .value()
                                   .applied));
          break;
        default:
          break;
      }
    });
  }
  ~ScriptedParent() { endpoint->shutdown(); }

  std::unique_ptr<transport::Endpoint> endpoint;
  std::atomic<ConnId::rep_type> child{ConnId::kInvalid};
  std::atomic<int> applied{-1};
};

TEST(ControllerNodeTest, RulesForUnknownStagesAreSkippedAndLogged) {
  transport::InProcNetwork net;
  ScriptedParent parent(net);
  ControllerNodeOptions options;
  options.id = ControllerId{3};
  options.upstream_address = "parent";
  ControllerNode node(net, "agg", options);
  ASSERT_TRUE(node.start().is_ok());
  StageHost host(net, "host", {{"agg"}});
  ASSERT_TRUE(host.start().is_ok());
  ASSERT_TRUE(host.add_stage({StageId{1}, NodeId{1}, JobId{0}, "n"},
                             workload::constant(1000), nullptr)
                  .is_ok());
  ASSERT_TRUE(host.register_all().is_ok());
  ASSERT_TRUE(eventually([&] {
    return node.registered_stages() == 1 &&
           parent.child.load() != ConnId::kInvalid;
  }));

  // The parent's batch names the node's stage and one the node never saw.
  proto::EnforceBatch batch;
  batch.cycle_id = 1;
  batch.rules.resize(2);
  batch.rules[0].stage_id = StageId{1};
  batch.rules[0].data_iops_limit = 123.0;
  batch.rules[0].epoch = 1;
  batch.rules[1].stage_id = StageId{99};
  batch.rules[1].data_iops_limit = 456.0;
  batch.rules[1].epoch = 1;
  const LogLevel level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kWARN);
  testing::internal::CaptureStderr();
  ASSERT_TRUE(parent.endpoint
                  ->send(ConnId{parent.child.load()}, proto::to_frame(batch))
                  .is_ok());
  const bool acked = eventually([&] { return parent.applied.load() >= 0; });
  const std::string log = testing::internal::GetCapturedStderr();
  Logger::instance().set_level(level);
  ASSERT_TRUE(acked);

  // The known stage's rule was enforced and acked; the unknown one was
  // skipped and logged.
  EXPECT_EQ(parent.applied.load(), 1);
  EXPECT_DOUBLE_EQ(
      host.stage_limit(StageId{1}, stage::Dimension::kData).value(), 123.0);
  EXPECT_NE(log.find("skipped 1 rules for unknown stages"), std::string::npos)
      << log;
  host.shutdown();
  node.shutdown();
}

TEST(ControllerNodeTest, LostControllerChildTakesItsStagesAlong) {
  // The child's stages cannot fail over, so only the connection-loss rule
  // removes them from the root.
  transport::InProcNetwork net;
  ControllerNode root(net, "global", {});
  ASSERT_TRUE(root.start().is_ok());
  ControllerNodeOptions options;
  options.id = ControllerId{0};
  options.upstream_address = "global";
  ControllerNode agg(net, "agg0", options);
  ASSERT_TRUE(agg.start().is_ok());
  StageHostOptions host_options;
  host_options.controller_addresses = {"agg0"};
  host_options.auto_failover = false;
  StageHost host(net, "host0", host_options);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000), nullptr)
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  ASSERT_TRUE(eventually([&] { return root.registered_stages() == 4; }));
  ASSERT_EQ(root.known_aggregators(), 1u);

  agg.shutdown();
  EXPECT_TRUE(eventually([&] {
    return root.registered_stages() == 0 && root.known_aggregators() == 0;
  })) << "stages=" << root.registered_stages();
  EXPECT_EQ(root.run_cycle().status().code(), StatusCode::kFailedPrecondition);
  host.shutdown();
  root.shutdown();
}

TEST(ControllerNodeTest, EveryControllerChildGetsABatch) {
  // parent -> super -> leaf, no stages: an empty batch for the super
  // still goes down to its controller child, whose ack comes back up.
  transport::InProcNetwork net;
  ScriptedParent parent(net);
  ControllerNodeOptions super_options;
  super_options.id = ControllerId{1};
  super_options.upstream_address = "parent";
  ControllerNode super(net, "super", super_options);
  ASSERT_TRUE(super.start().is_ok());
  ControllerNodeOptions leaf_options;
  leaf_options.id = ControllerId{2};
  leaf_options.upstream_address = "super";
  ControllerNode leaf(net, "leaf", leaf_options);
  ASSERT_TRUE(leaf.start().is_ok());
  // The leaf has its introduction's ack, so nothing else is in flight.
  ASSERT_TRUE(eventually([&] {
    return super.known_aggregators() == 1 &&
           parent.child.load() != ConnId::kInvalid &&
           leaf.endpoint()->counters().messages_received == 1;
  }));

  const std::uint64_t before = leaf.endpoint()->counters().messages_received;
  ASSERT_TRUE(parent.endpoint
                  ->send(ConnId{parent.child.load()},
                         proto::to_frame(proto::EnforceBatch{7, {}}))
                  .is_ok());
  ASSERT_TRUE(eventually([&] { return parent.applied.load() >= 0; }));
  EXPECT_EQ(parent.applied.load(), 0);
  EXPECT_EQ(leaf.endpoint()->counters().messages_received, before + 1);
  leaf.shutdown();
  super.shutdown();
}

/// A scripted stage 0 of job 0, registered with `controller`: it reports
/// an infinite data rate every cycle, acks every batch and records the
/// rules it gets.
struct RogueStage {
  RogueStage(transport::InProcNetwork& net, const std::string& controller)
      : endpoint(net.bind("rogue", {}).value()) {
    endpoint->set_frame_handler([this](ConnId conn, wire::Frame frame) {
      using proto::MessageType;
      switch (static_cast<MessageType>(frame.type)) {
        case MessageType::kCollectRequest: {
          proto::StageMetrics report;
          report.cycle_id =
              proto::from_frame<proto::CollectRequest>(frame).value().cycle_id;
          report.stage_id = StageId{0};
          report.job_id = JobId{0};
          report.data_iops = std::numeric_limits<double>::infinity();
          report.meta_iops = 10;
          (void)endpoint->send(conn, proto::to_frame(report));
          break;
        }
        case MessageType::kEnforceBatch: {
          const auto batch = proto::from_frame<proto::EnforceBatch>(frame);
          for (const proto::Rule& rule : batch.value().rules) {
            if (rule.stage_id != StageId{0}) continue;
            data_limit.store(rule.data_iops_limit);
            meta_limit.store(rule.meta_iops_limit);
            rules.fetch_add(1);
          }
          proto::EnforceAck ack;
          ack.cycle_id = batch.value().cycle_id;
          ack.applied = static_cast<std::uint32_t>(batch.value().rules.size());
          (void)endpoint->send(conn, proto::to_frame(ack));
          break;
        }
        default:
          break;
      }
    });
    proto::RegisterRequest request;
    request.info = {StageId{0}, NodeId{0}, JobId{0}, "rogue"};
    registered = endpoint
                     ->send(endpoint->connect(controller).value(),
                            proto::to_frame(request))
                     .is_ok();
  }
  ~RogueStage() { endpoint->shutdown(); }

  std::unique_ptr<transport::Endpoint> endpoint;
  bool registered = false;
  std::atomic<int> rules{0};
  std::atomic<double> data_limit{-1};
  std::atomic<double> meta_limit{-1};
};

/// Stages 1-3 (job i / 2) at 1,000 data and 100 metadata ops/s each.
void add_honest_stages(StageHost& host) {
  for (std::uint32_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{i / 2}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
}

/// Stages 1-3's enforced data limits are finite and share at most the
/// 1,000 data ops/s budget.
void expect_finite_within_budget(const StageHost& host, std::uint64_t cycle) {
  double data_sum = 0;
  for (std::uint32_t i = 1; i < 4; ++i) {
    const double limit =
        host.stage_limit(StageId{i}, stage::Dimension::kData).value();
    EXPECT_TRUE(std::isfinite(limit)) << "stage " << i << ": " << limit;
    data_sum += limit;
  }
  EXPECT_LE(data_sum, 1000.0 * (1 + 1e-9)) << "cycle " << cycle;
}

TEST(ControllerNodeTest, NonFiniteReportCountsStaleAndLeavesTheBudgetWhole) {
  // Four stages in two jobs under a 1,000 data ops/s budget; stage 0 is
  // the rogue.
  transport::InProcNetwork net;
  ControllerNodeOptions options;
  options.core.budgets = {1000.0, 100.0};
  ControllerNode root(net, "global", options);
  ASSERT_TRUE(root.start().is_ok());
  RogueStage rogue(net, "global");
  ASSERT_TRUE(rogue.registered);
  StageHost host(net, "host", {{"global"}});
  ASSERT_TRUE(host.start().is_ok());
  add_honest_stages(host);
  ASSERT_TRUE(eventually([&] { return root.registered_stages() == 4; }));

  for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
    ASSERT_TRUE(root.run_cycle().is_ok());
    // The refused report counts stale, so every cycle reads degraded.
    EXPECT_EQ(root.stats().degraded_cycles(), cycle);
    EXPECT_EQ(root.stats().stale_stages(), cycle);
    expect_finite_within_budget(host, cycle);
  }
  host.shutdown();
  root.shutdown();
}

TEST(ControllerNodeTest, RefusedReportBelowTheRootKeepsTheLastAcceptedOne) {
  // The same four stages one level down: root -> agg0 -> rogue and host.
  // The aggregator refuses every one of the rogue's reports, so its store
  // keeps the rogue's last accepted report (zeros, as none was), and the
  // rogue's rule follows from that report every cycle.
  transport::InProcNetwork net;
  ControllerNodeOptions root_options;
  root_options.core.budgets = {1000.0, 100.0};
  ControllerNode root(net, "global", root_options);
  ASSERT_TRUE(root.start().is_ok());
  ControllerNodeOptions agg_options;
  agg_options.id = ControllerId{0};
  agg_options.upstream_address = "global";
  ControllerNode agg(net, "agg0", agg_options);
  ASSERT_TRUE(agg.start().is_ok());
  RogueStage rogue(net, "agg0");
  ASSERT_TRUE(rogue.registered);
  StageHostOptions host_options;
  host_options.controller_addresses = {"agg0"};
  host_options.auto_failover = false;
  StageHost host(net, "host", host_options);
  ASSERT_TRUE(host.start().is_ok());
  add_honest_stages(host);
  ASSERT_TRUE(eventually([&] { return root.registered_stages() == 4; }));

  for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
    ASSERT_TRUE(root.run_cycle().is_ok());
    // The ack chain orders the rogue's batch before run_cycle returns.
    EXPECT_EQ(rogue.rules.load(), static_cast<int>(cycle));
    // Zero demand next to stage 1's 1,000 takes none of job 0's share.
    EXPECT_EQ(rogue.data_limit.load(), 0.0) << "cycle " << cycle;
    EXPECT_EQ(rogue.meta_limit.load(), 0.0) << "cycle " << cycle;
    expect_finite_within_budget(host, cycle);
  }
  host.shutdown();
  agg.shutdown();
  root.shutdown();
}

TEST(ControllerNodeTest, RootThatLosesItsControllerChildComputesAsIfFlat) {
  // Roots A and B each have four direct stages in two jobs, uncontended,
  // so every stage reports its demand whatever limits it had. A gains a
  // controller child with no stages of its own, the demand halves while
  // the child is attached, and the child leaves; B never has a child.
  // A's store fed aggregate_from_store while the child was attached, so
  // compute_from_store must rebuild from every slot when it takes the
  // store back, and A's next cycle must enforce B's limits exactly. The
  // rates have no exact float form, so the limits A enforced from its
  // summary's float digests differ from B's in their last bits.
  std::atomic<double> scale{1.0};
  const auto demand = [&scale](double rate) -> stage::DemandFn {
    return [&scale, rate](Nanos) { return rate * scale.load(); };
  };
  ControllerNodeOptions options;
  options.core.budgets = {1e6, 1e5};
  transport::InProcNetwork net_a;
  transport::InProcNetwork net_b;
  ControllerNode root_a(net_a, "global", options);
  ControllerNode root_b(net_b, "global", options);
  StageHost host_a(net_a, "host", {{"global"}});
  StageHost host_b(net_b, "host", {{"global"}});
  for (auto [root, host] :
       {std::pair(&root_a, &host_a), std::pair(&root_b, &host_b)}) {
    ASSERT_TRUE(root->start().is_ok());
    ASSERT_TRUE(host->start().is_ok());
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(host->add_stage({StageId{i}, NodeId{i}, JobId{i / 2}, "n"},
                                  demand((1000.0 + 250.0 * i) / 3),
                                  demand((100.0 + 25.0 * i) / 3))
                      .is_ok());
    }
    ASSERT_TRUE(host->register_all().is_ok());
    ASSERT_TRUE(eventually([root] { return root->registered_stages() == 4; }));
  }
  const auto cycle_both = [&] {
    ASSERT_TRUE(root_a.run_cycle().is_ok());
    ASSERT_TRUE(root_b.run_cycle().is_ok());
  };
  const auto limits = [](const StageHost& host) {
    std::vector<double> out;
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (const auto dim :
           {stage::Dimension::kData, stage::Dimension::kMeta}) {
        out.push_back(host.stage_limit(StageId{i}, dim).value());
      }
    }
    return out;
  };

  cycle_both();
  cycle_both();
  const std::vector<double> before = limits(host_b);
  ControllerNodeOptions child_options;
  child_options.id = ControllerId{0};
  child_options.upstream_address = "global";
  ControllerNode child(net_a, "child", child_options);
  ASSERT_TRUE(child.start().is_ok());
  ASSERT_TRUE(eventually([&] { return root_a.known_aggregators() == 1; }));
  cycle_both();
  scale.store(0.5);
  cycle_both();
  cycle_both();
  child.shutdown();
  ASSERT_TRUE(eventually([&] { return root_a.known_aggregators() == 0; }));
  cycle_both();

  const std::vector<double> flat = limits(host_b);
  ASSERT_NE(flat, before) << "the demand change must move the limits";
  const std::vector<double> flipped = limits(host_a);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flipped[i], flat[i]) << "limit " << i;
  }
  host_a.shutdown();
  host_b.shutdown();
}

}  // namespace
}  // namespace sds::runtime
