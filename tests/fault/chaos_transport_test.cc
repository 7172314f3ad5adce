// ChaosNetwork: the fault-wrapping transport shim the live runtime uses
// to inject message drop/duplication/delay. Probabilities of 0 and 1
// give exact expectations; the delay path must deliver eventually.
#include "fault/chaos_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/queue.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "transport/inproc.h"

namespace sds::fault {
namespace {

using namespace std::chrono_literals;

wire::Frame test_frame(std::uint16_t type) {
  wire::Frame frame;
  frame.type = type;
  frame.payload.assign(4, 0x5A);
  return frame;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 2000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(ChaosTransportTest, ZeroProbabilitiesPassThrough) {
  transport::InProcNetwork base;
  ChaosNetwork net(base, ChaosNetwork::Options{});
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { ++received; });
  const ConnId conn = client->connect("server").value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(1)).is_ok());
  }
  ASSERT_TRUE(eventually([&] { return received.load() == 50; }));
  EXPECT_EQ(net.stats().total(), 0u);
}

TEST(ChaosTransportTest, DropProbabilityOneDropsEverything) {
  transport::InProcNetwork base;
  ChaosNetwork::Options options;
  options.drop_probability = 1.0;
  ChaosNetwork net(base, options);
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { ++received; });
  const ConnId conn = client->connect("server").value();
  for (int i = 0; i < 20; ++i) {
    // A dropped send still reports OK — the sender cannot tell.
    ASSERT_TRUE(client->send(conn, test_frame(1)).is_ok());
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.stats().dropped, 20u);
}

TEST(ChaosTransportTest, DuplicateProbabilityOneDoublesDelivery) {
  transport::InProcNetwork base;
  ChaosNetwork::Options options;
  options.duplicate_probability = 1.0;
  ChaosNetwork net(base, options);
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { ++received; });
  const ConnId conn = client->connect("server").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(1)).is_ok());
  }
  ASSERT_TRUE(eventually([&] { return received.load() == 20; }));
  EXPECT_EQ(net.stats().duplicated, 10u);
}

TEST(ChaosTransportTest, DelayedFramesStillArrive) {
  transport::InProcNetwork base;
  ChaosNetwork::Options options;
  options.delay_probability = 1.0;
  options.delay = millis(5);
  ChaosNetwork net(base, options);
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { ++received; });
  const ConnId conn = client->connect("server").value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(1)).is_ok());
  }
  ASSERT_TRUE(eventually([&] { return received.load() == 5; }));
  EXPECT_EQ(net.stats().delayed, 5u);
}

TEST(ChaosTransportTest, BurstsDrawOneFatePerFrame) {
  // A chaos endpoint keeps the per-frame loop for the burst calls, so a
  // fixed seed injects the same faults whichever way a wave is sent.
  constexpr int kFrames = 300;
  ChaosNetwork::Options options;
  options.seed = 11;
  options.drop_probability = 0.1;
  options.duplicate_probability = 0.1;
  options.delay_probability = 0.1;
  options.delay = micros(50);
  const auto run = [&](bool burst) {
    std::atomic<int> received{0};
    transport::InProcNetwork base;
    ChaosNetwork net(base, options);
    auto server = net.bind("server", {}).value();
    auto client = net.bind("client", {}).value();
    server->set_frame_handler([&](ConnId, wire::Frame) { ++received; });
    std::vector<ConnId> conns;
    for (int i = 0; i < 3; ++i) {
      conns.push_back(client->connect("server").value());
    }
    const wire::SharedFrame shared =
        wire::SharedFrame::from_frame(test_frame(2));
    if (burst) {
      std::vector<std::pair<ConnId, wire::Frame>> sends;
      for (int i = 0; i < kFrames; ++i) {
        sends.emplace_back(conns[i % 3], test_frame(1));
      }
      EXPECT_EQ(client->send_all(sends), static_cast<std::size_t>(kFrames));
      EXPECT_EQ(client->send_shared_all(conns, shared), conns.size());
    } else {
      for (int i = 0; i < kFrames; ++i) {
        EXPECT_TRUE(client->send(conns[i % 3], test_frame(1)).is_ok());
      }
      for (const ConnId conn : conns) {
        EXPECT_TRUE(client->send_shared(conn, shared).is_ok());
      }
    }
    const ChaosStats stats = net.stats();
    const int expected = kFrames + 3 - static_cast<int>(stats.dropped) +
                         static_cast<int>(stats.duplicated);
    EXPECT_TRUE(eventually([&] { return received.load() == expected; }));
    return stats;
  };
  const ChaosStats looped = run(/*burst=*/false);
  const ChaosStats burst = run(/*burst=*/true);
  EXPECT_GT(looped.dropped, 0u);
  EXPECT_GT(looped.duplicated, 0u);
  EXPECT_GT(looped.delayed, 0u);
  EXPECT_EQ(burst.dropped, looped.dropped);
  EXPECT_EQ(burst.duplicated, looped.duplicated);
  EXPECT_EQ(burst.delayed, looped.delayed);
}

TEST(ChaosTransportTest, PlanConvenienceConstructorAndMetrics) {
  transport::InProcNetwork base;
  FaultPlan plan;
  plan.seed = 4;
  plan.drop_probability = 1.0;
  telemetry::MetricsRegistry metrics;
  ChaosNetwork net(base, plan, &metrics);
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  server->set_frame_handler([](ConnId, wire::Frame) {});
  const ConnId conn = client->connect("server").value();
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(1)).is_ok());
  }
  EXPECT_EQ(net.stats().dropped, 7u);
  const std::string text = telemetry::to_prometheus_text(metrics.snapshot());
  EXPECT_NE(text.find("sds_fault_injected_total"), std::string::npos) << text;
}

}  // namespace
}  // namespace sds::fault
