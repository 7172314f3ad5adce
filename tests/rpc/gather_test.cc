#include "rpc/gather.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>

#include "rpc/broadcast.h"
#include "telemetry/metrics.h"
#include "transport/inproc.h"

// Counts this thread's heap allocations, so a test can assert that a
// code path allocates nothing. Kept out of line: once inlined next to a
// new-expression, GCC reads the free() as a mismatched deallocation.
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sds::rpc {
namespace {

wire::Frame metrics_frame(std::uint64_t cycle, StageId stage) {
  proto::StageMetrics m;
  m.cycle_id = cycle;
  m.stage_id = stage;
  m.job_id = JobId{0};
  return proto::to_frame(m);
}

/// Offers a fresh frame; a refused one is dropped.
bool offer(Gather& gather, ConnId conn, wire::Frame frame) {
  return gather.offer(conn, frame);
}

std::vector<ConnId> conn_range(std::size_t n) {
  std::vector<ConnId> conns;
  for (std::size_t i = 0; i < n; ++i) conns.push_back(ConnId{1000 + i});
  return conns;
}

TEST(PeekCycleIdTest, ReadsLeadingVarint) {
  const auto frame = metrics_frame(12345, StageId{1});
  EXPECT_EQ(peek_cycle_id(frame), 12345u);
}

TEST(PeekCycleIdTest, EmptyPayloadIsNullopt) {
  wire::Frame frame;
  frame.type = 4;
  EXPECT_EQ(peek_cycle_id(frame), std::nullopt);
}

TEST(GatherTest, CompletesWhenAllReplyArrive) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{3}});
  EXPECT_EQ(gather.pending(), 3u);
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_TRUE(offer(gather, ConnId{2}, metrics_frame(7, StageId{2})));
  EXPECT_TRUE(offer(gather, ConnId{3}, metrics_frame(7, StageId{3})));
  EXPECT_TRUE(gather.wait_for(millis(10)).is_ok());
  EXPECT_EQ(gather.take_replies().size(), 3u);
}

TEST(GatherTest, RejectsWrongType) {
  Gather gather(proto::MessageType::kEnforceAck, 7, {ConnId{1}});
  EXPECT_FALSE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
}

TEST(GatherTest, RejectsWrongCycle) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}});
  EXPECT_FALSE(offer(gather, ConnId{1}, metrics_frame(8, StageId{1})));
}

TEST(GatherTest, RejectsUnexpectedConn) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}});
  EXPECT_FALSE(offer(gather, ConnId{99}, metrics_frame(7, StageId{1})));
}

TEST(GatherTest, DuplicateReplyConsumedOnce) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}, ConnId{2}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_FALSE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_EQ(gather.pending(), 1u);
}

TEST(GatherTest, NoCycleFilterAcceptsAny) {
  Gather gather(proto::MessageType::kStageMetrics, std::nullopt, {ConnId{1}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(999, StageId{1})));
}

TEST(GatherTest, TimesOutWithMissingReplies) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}, ConnId{2}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  const Status status = gather.wait_for(millis(20));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gather.take_replies().size(), 1u);  // partial results available
}

TEST(GatherTest, FailedConnUnblocksWait) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}, ConnId{2}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  gather.fail(ConnId{2});
  const Status status = gather.wait_for(millis(10));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(gather.take_replies().size(), 1u);
}

TEST(GatherTest, QuorumReturnsBeforeStragglers) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{3}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_TRUE(offer(gather, ConnId{2}, metrics_frame(7, StageId{2})));
  // Quorum of 2 is already met: returns OK without waiting out the
  // deadline even though ConnId{3} never answers.
  EXPECT_TRUE(gather.wait_for(seconds(10), 2).is_ok());
  EXPECT_EQ(gather.missing(), 1u);
  EXPECT_EQ(gather.reply_count(), 2u);
  const auto bitmap = gather.reply_bitmap();
  EXPECT_TRUE(bitmap[0]);
  EXPECT_TRUE(bitmap[1]);
  EXPECT_FALSE(bitmap[2]);
  EXPECT_EQ(gather.take_replies().size(), 2u);  // partial results
}

TEST(GatherTest, QuorumStillTimesOutBelowThreshold) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{3}});
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  const Status status = gather.wait_for(millis(20), 2);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gather.missing(), 2u);
  EXPECT_EQ(gather.take_replies().size(), 1u);
}

TEST(GatherTest, QuorumUnblocksFromAnotherThread) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{3}});
  std::thread replier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    offer(gather, ConnId{1}, metrics_frame(7, StageId{1}));
    offer(gather, ConnId{2}, metrics_frame(7, StageId{2}));
  });
  EXPECT_TRUE(gather.wait_for(seconds(5), 2).is_ok());
  EXPECT_EQ(gather.missing(), 1u);
  replier.join();
}

TEST(GatherTest, EmptyExpectationCompletesImmediately) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {});
  EXPECT_TRUE(gather.wait_for(Nanos{0}).is_ok());
}

TEST(GatherTest, WaitUnblocksFromAnotherThread) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}});
  std::thread replier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    offer(gather, ConnId{1}, metrics_frame(7, StageId{1}));
  });
  EXPECT_TRUE(gather.wait_for(seconds(2)).is_ok());
  replier.join();
}

TEST(GatherTest, RefusedFrameKeepsItsPayload) {
  Gather gather(proto::MessageType::kStageMetrics, 7, {ConnId{1}});
  const wire::Frame original = metrics_frame(7, StageId{1});
  wire::Frame wrong_type = original;
  wrong_type.type = static_cast<std::uint16_t>(proto::MessageType::kEnforceAck);
  wire::Frame wrong_cycle = metrics_frame(8, StageId{1});
  const wire::Frame wrong_cycle_copy = wrong_cycle;
  wire::Frame unknown_peer = original;
  EXPECT_FALSE(gather.offer(ConnId{1}, wrong_type));
  EXPECT_EQ(wrong_type.payload, original.payload);
  EXPECT_FALSE(gather.offer(ConnId{1}, wrong_cycle));
  EXPECT_EQ(wrong_cycle.payload, wrong_cycle_copy.payload);
  EXPECT_FALSE(gather.offer(ConnId{99}, unknown_peer));
  EXPECT_EQ(unknown_peer.payload, original.payload);

  wire::Frame first = original;
  EXPECT_TRUE(gather.offer(ConnId{1}, first));
  wire::Frame duplicate = original;
  EXPECT_FALSE(gather.offer(ConnId{1}, duplicate));
  EXPECT_EQ(duplicate.payload, original.payload);
  const auto replies = gather.take_replies();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].frame.payload, original.payload);
}

TEST(GatherTest, DuplicateExpectedConnIsOnePeer) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{1}});
  EXPECT_EQ(gather.pending(), 2u);
  EXPECT_TRUE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_FALSE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
  EXPECT_EQ(gather.pending(), 1u);
  EXPECT_EQ(gather.reply_bitmap(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(offer(gather, ConnId{2}, metrics_frame(7, StageId{2})));
  EXPECT_TRUE(gather.wait_for(Nanos{0}).is_ok());
  EXPECT_EQ(gather.reply_count(), 2u);
  EXPECT_EQ(gather.reply_bitmap(), (std::vector<bool>{true, true, true}));
  EXPECT_EQ(gather.take_replies().size(), 2u);
}

TEST(GatherTest, FailedDuplicateConnSettlesEveryEntry) {
  Gather gather(proto::MessageType::kStageMetrics, 7,
                {ConnId{1}, ConnId{2}, ConnId{1}});
  gather.fail(ConnId{1});
  gather.fail(ConnId{1});  // already settled: counted once
  EXPECT_TRUE(offer(gather, ConnId{2}, metrics_frame(7, StageId{2})));
  EXPECT_EQ(gather.wait_for(Nanos{0}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(gather.reply_bitmap(), (std::vector<bool>{false, true, false}));
  EXPECT_FALSE(offer(gather, ConnId{1}, metrics_frame(7, StageId{1})));
}

/// A 2,500-peer gather (the paper's per-node connection cap) with the
/// gather instruments bound, as the live servers run it.
struct InstrumentedGather {
  static constexpr std::size_t kPeers = 2'500;

  InstrumentedGather() {
    dispatcher.bind_telemetry(registry);
    gather = dispatcher.start_gather(proto::MessageType::kStageMetrics, 7,
                                     conn_range(kPeers));
    for (std::size_t i = 0; i < kPeers; ++i) {
      frames.push_back(metrics_frame(7, StageId{static_cast<std::uint32_t>(i)}));
    }
  }

  std::uint64_t wakeups() {
    return registry.counter("sds_rpc_gather_wakeups_total")->value();
  }

  /// Routes replies [from, to) through the dispatcher.
  void feed(std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      dispatcher.on_frame(gather->expected()[i], std::move(frames[i]));
    }
  }

  telemetry::MetricsRegistry registry;
  Dispatcher dispatcher;
  std::shared_ptr<Gather> gather;
  std::vector<wire::Frame> frames;
};

// The feeding thread starts after a pause, so the waiter (this thread)
// is already blocked in wait_for() when the replies arrive.
constexpr auto kLetWaiterBlock = std::chrono::milliseconds(100);

TEST(GatherWakeTest, FullWaveWakesWaiterOnce) {
  InstrumentedGather rig;
  std::thread feeder([&] {
    std::this_thread::sleep_for(kLetWaiterBlock);
    rig.feed(0, InstrumentedGather::kPeers);
  });
  EXPECT_TRUE(rig.gather->wait_for(seconds(10)).is_ok());
  feeder.join();
  EXPECT_EQ(rig.gather->reply_count(), InstrumentedGather::kPeers);
  EXPECT_EQ(rig.wakeups(), 1u);
  rig.dispatcher.finish(rig.gather);
}

TEST(GatherWakeTest, QuorumWaitWakesOnceAtQuorum) {
  InstrumentedGather rig;
  constexpr std::size_t kQuorum = InstrumentedGather::kPeers / 2;
  std::promise<std::size_t> seen_at_wake;
  std::thread feeder([&] {
    std::this_thread::sleep_for(kLetWaiterBlock);
    rig.feed(0, kQuorum);
    // Stragglers arrive only after the waiter returned.
    const std::size_t seen = seen_at_wake.get_future().get();
    EXPECT_EQ(seen, kQuorum);
    rig.feed(kQuorum, InstrumentedGather::kPeers);
  });
  EXPECT_TRUE(rig.gather->wait_for(seconds(10), kQuorum).is_ok());
  seen_at_wake.set_value(rig.gather->reply_count());
  feeder.join();
  EXPECT_EQ(rig.gather->missing(), 0u);
  EXPECT_EQ(rig.wakeups(), 1u);  // completion after quorum wakes nobody
  rig.dispatcher.finish(rig.gather);
}

TEST(GatherWakeTest, RepliesBeforeTheWaitWakeNobody) {
  InstrumentedGather rig;
  rig.feed(0, InstrumentedGather::kPeers);
  EXPECT_TRUE(rig.gather->wait_for(Nanos{0}).is_ok());
  EXPECT_EQ(rig.wakeups(), 0u);
  rig.dispatcher.finish(rig.gather);
}

TEST(GatherWakeTest, AcceptedRepliesAllocateNothing) {
  InstrumentedGather rig;
  // A refused frame takes both locks once, so builds with lock-order
  // checks size their per-thread held-lock stack before the count.
  rig.dispatcher.on_frame(ConnId{1}, metrics_frame(7, StageId{0}));
  const std::size_t before = t_allocations;
  rig.feed(0, InstrumentedGather::kPeers);
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_EQ(rig.gather->pending(), 0u);
  rig.dispatcher.finish(rig.gather);
}

TEST(DispatcherTest, RoutesToMatchingGather) {
  Dispatcher dispatcher;
  std::atomic<int> fallback_hits{0};
  dispatcher.set_fallback([&](ConnId, wire::Frame) { fallback_hits.fetch_add(1); });

  auto gather = dispatcher.start_gather(proto::MessageType::kStageMetrics, 7,
                                        {ConnId{1}});
  dispatcher.on_frame(ConnId{1}, metrics_frame(7, StageId{1}));
  EXPECT_TRUE(gather->wait_for(Nanos{0}).is_ok());
  EXPECT_EQ(fallback_hits.load(), 0);
}

TEST(DispatcherTest, UnmatchedFramesFallThrough) {
  Dispatcher dispatcher;
  std::vector<wire::Frame> fallen;
  dispatcher.set_fallback(
      [&](ConnId, wire::Frame frame) { fallen.push_back(std::move(frame)); });

  auto gather = dispatcher.start_gather(proto::MessageType::kStageMetrics, 7,
                                        {ConnId{1}});
  const wire::Frame wrong_cycle = metrics_frame(8, StageId{1});
  const wire::Frame wrong_conn = metrics_frame(7, StageId{2});
  const wire::Frame reply = metrics_frame(7, StageId{1});
  dispatcher.on_frame(ConnId{1}, wrong_cycle);
  dispatcher.on_frame(ConnId{2}, wrong_conn);
  dispatcher.on_frame(ConnId{1}, reply);
  dispatcher.on_frame(ConnId{1}, reply);  // duplicate
  // The fallback gets each refused frame whole.
  ASSERT_EQ(fallen.size(), 3u);
  EXPECT_EQ(fallen[0].payload, wrong_cycle.payload);
  EXPECT_EQ(fallen[1].payload, wrong_conn.payload);
  EXPECT_EQ(fallen[2].payload, reply.payload);
  dispatcher.finish(gather);
}

TEST(DispatcherTest, FinishedGatherNoLongerRoutes) {
  Dispatcher dispatcher;
  std::atomic<int> fallback_hits{0};
  dispatcher.set_fallback([&](ConnId, wire::Frame) { fallback_hits.fetch_add(1); });

  auto gather = dispatcher.start_gather(proto::MessageType::kStageMetrics, 7,
                                        {ConnId{1}});
  dispatcher.finish(gather);
  dispatcher.on_frame(ConnId{1}, metrics_frame(7, StageId{1}));
  EXPECT_EQ(fallback_hits.load(), 1);
}

TEST(DispatcherTest, ConnClosedFailsPendingGathers) {
  Dispatcher dispatcher;
  auto gather = dispatcher.start_gather(proto::MessageType::kStageMetrics, 7,
                                        {ConnId{1}});
  dispatcher.on_conn_event(ConnId{1}, transport::ConnEvent::kClosed);
  EXPECT_EQ(gather->wait_for(Nanos{0}).code(), StatusCode::kUnavailable);
}

TEST(RpcCallTest, RoundTripOverInProc) {
  transport::InProcNetwork net;
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();

  // Server: answer RegisterRequest with RegisterAck.
  server->set_frame_handler([&](ConnId conn, wire::Frame frame) {
    auto request = proto::from_frame<proto::RegisterRequest>(frame);
    ASSERT_TRUE(request.is_ok());
    proto::RegisterAck ack;
    ack.accepted = true;
    ack.epoch = 5;
    (void)server->send(conn, proto::to_frame(ack));
  });

  Dispatcher dispatcher;
  client->set_frame_handler([&](ConnId conn, wire::Frame frame) {
    dispatcher.on_frame(conn, std::move(frame));
  });

  const ConnId conn = client->connect("server").value();
  proto::RegisterRequest request;
  request.info = {StageId{1}, NodeId{1}, JobId{1}, "n1"};
  auto ack = call<proto::RegisterAck>(*client, dispatcher, conn, request,
                                      seconds(2));
  ASSERT_TRUE(ack.is_ok()) << ack.status();
  EXPECT_TRUE(ack->accepted);
  EXPECT_EQ(ack->epoch, 5u);
}

TEST(RpcCallTest, TimesOutWithoutReply) {
  transport::InProcNetwork net;
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  server->set_frame_handler([](ConnId, wire::Frame) { /* never reply */ });

  Dispatcher dispatcher;
  client->set_frame_handler([&](ConnId conn, wire::Frame frame) {
    dispatcher.on_frame(conn, std::move(frame));
  });

  const ConnId conn = client->connect("server").value();
  proto::RegisterRequest request;
  request.info = {StageId{1}, NodeId{1}, JobId{1}, "n1"};
  auto ack = call<proto::RegisterAck>(*client, dispatcher, conn, request,
                                      millis(50));
  EXPECT_FALSE(ack.is_ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GatherCountersTest, WaveIsCountedWhenItsWaitReturns) {
  // Every frame of a wave is in its sender's and its receiver's
  // counters before the receiver can deliver it, so a controller that
  // reads them right after a wave ends sees the whole wave.
  transport::InProcNetwork net;
  auto hosts = net.bind("hosts", {}).value();
  auto controller = net.bind("controller", {}).value();
  hosts->set_frame_handler([&](ConnId conn, wire::Frame frame) {
    const auto request = proto::from_frame<proto::CollectRequest>(frame);
    ASSERT_TRUE(request.is_ok());
    (void)hosts->send(conn, metrics_frame(request->cycle_id, StageId{1}));
  });
  Dispatcher dispatcher;
  controller->set_frame_handler([&](ConnId conn, wire::Frame frame) {
    dispatcher.on_frame(conn, std::move(frame));
  });
  constexpr std::size_t kStages = 200;
  std::vector<ConnId> conns;
  for (std::size_t i = 0; i < kStages; ++i) {
    conns.push_back(controller->connect("hosts").value());
  }
  for (std::uint64_t cycle = 1; cycle <= 30; ++cycle) {
    auto gather = dispatcher.start_gather(proto::MessageType::kStageMetrics,
                                          cycle, conns);
    proto::CollectRequest request;
    request.cycle_id = cycle;
    ASSERT_EQ(broadcast(*controller, conns, request), kStages);
    ASSERT_TRUE(gather->wait_for(seconds(10)).is_ok());
    const std::uint64_t frames = cycle * kStages;
    EXPECT_EQ(controller->counters().messages_sent, frames);
    EXPECT_EQ(hosts->counters().messages_received, frames);
    EXPECT_EQ(hosts->counters().messages_sent, frames) << "cycle " << cycle;
    EXPECT_EQ(controller->counters().messages_received, frames)
        << "cycle " << cycle;
    dispatcher.finish(gather);
  }
}

}  // namespace
}  // namespace sds::rpc
