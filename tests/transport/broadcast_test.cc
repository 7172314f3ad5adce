// SharedFrame broadcast through real endpoints: exactly-one-encode,
// refcount/lifetime across delivery threads, and tcp writev paths.
#include "rpc/broadcast.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "proto/messages.h"
#include "transport/inproc.h"
#include "transport/tcp.h"
#include "wire/shared_frame.h"

namespace sds::transport {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 2000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

proto::CollectRequest make_request(std::uint64_t cycle) {
  proto::CollectRequest request;
  request.cycle_id = cycle;
  return request;
}

TEST(BroadcastTest, InprocBroadcastEncodesExactlyOnce) {
  InProcNetwork net;
  auto sender = net.bind("sender", {}).value();

  constexpr std::size_t kReceivers = 4;
  std::vector<std::unique_ptr<Endpoint>> receivers;
  std::atomic<std::size_t> delivered{0};
  for (std::size_t i = 0; i < kReceivers; ++i) {
    auto ep = net.bind("recv" + std::to_string(i), {}).value();
    ep->set_frame_handler([&](ConnId, wire::Frame frame) {
      auto request = proto::from_frame<proto::CollectRequest>(frame);
      if (request.is_ok() && request->cycle_id == 42) {
        delivered.fetch_add(1);
      }
    });
    receivers.push_back(std::move(ep));
  }

  std::vector<ConnId> conns;
  for (std::size_t i = 0; i < kReceivers; ++i) {
    conns.push_back(sender->connect("recv" + std::to_string(i)).value());
  }

  const auto encodes_before = wire::EncodeStats::frames_encoded.load();
  const std::size_t queued =
      rpc::broadcast(*sender, conns, make_request(42));
  EXPECT_EQ(queued, kReceivers);
  // One message, N destinations: exactly one encode.
  EXPECT_EQ(wire::EncodeStats::frames_encoded.load() - encodes_before, 1u);
  EXPECT_TRUE(eventually([&] { return delivered.load() == kReceivers; }));

  const auto counters = sender->counters();
  EXPECT_EQ(counters.messages_sent, kReceivers);
}

TEST(BroadcastTest, SharedImageRefcountDropsAfterDelivery) {
  InProcNetwork net;
  auto sender = net.bind("sender", {}).value();
  constexpr std::size_t kReceivers = 3;
  std::vector<std::unique_ptr<Endpoint>> receivers;
  // Addresses built in two steps: GCC 12's -Wrestrict misfires on the
  // `"r" + std::to_string(i)` temporary under -O2 (PR 105329).
  const auto addr = [](std::size_t i) {
    std::string a = "r";
    a += std::to_string(i);
    return a;
  };
  std::atomic<std::size_t> delivered{0};
  for (std::size_t i = 0; i < kReceivers; ++i) {
    auto ep = net.bind(addr(i), {}).value();
    ep->set_frame_handler(
        [&](ConnId, wire::Frame) { delivered.fetch_add(1); });
    receivers.push_back(std::move(ep));
  }
  std::vector<ConnId> conns;
  for (std::size_t i = 0; i < kReceivers; ++i) {
    conns.push_back(sender->connect(addr(i)).value());
  }

  const wire::SharedFrame shared =
      proto::to_shared_frame(make_request(7));
  EXPECT_EQ(shared.use_count(), 1);
  sender->send_shared_all(conns, shared);
  ASSERT_TRUE(eventually([&] { return delivered.load() == kReceivers; }));
  // Each delivery queue entry held one reference; after all deliveries
  // materialize their copy, only the test's handle remains.
  EXPECT_TRUE(eventually([&] { return shared.use_count() == 1; }));
}

TEST(BroadcastTest, SharedImageOutlivesSenderHandle) {
  // Dropping the caller's SharedFrame right after queueing must not
  // invalidate in-flight deliveries: the queues co-own the image.
  InProcNetwork net;
  auto sender = net.bind("sender", {}).value();
  auto receiver = net.bind("receiver", {}).value();
  Queue<wire::Frame> received;
  receiver->set_frame_handler(
      [&](ConnId, wire::Frame frame) { received.push(std::move(frame)); });
  const ConnId conn = sender->connect("receiver").value();

  {
    const wire::SharedFrame shared = proto::to_shared_frame(make_request(9));
    ASSERT_TRUE(sender->send_shared(conn, shared).is_ok());
  }  // sender's handle gone; only the delivery queue holds the image

  auto frame = received.pop_for(seconds(2));
  ASSERT_TRUE(frame.has_value());
  const auto request = proto::from_frame<proto::CollectRequest>(*frame);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request->cycle_id, 9u);
}

TEST(BroadcastTest, TcpSendSharedRoundTrips) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  Queue<wire::Frame> received;
  server->set_frame_handler(
      [&](ConnId, wire::Frame frame) { received.push(std::move(frame)); });

  const ConnId conn = client->connect(server->address()).value();
  const wire::SharedFrame shared = proto::to_shared_frame(make_request(11));
  ASSERT_TRUE(client->send_shared(conn, shared).is_ok());

  auto frame = received.pop_for(seconds(5));
  ASSERT_TRUE(frame.has_value());
  const auto request = proto::from_frame<proto::CollectRequest>(*frame);
  ASSERT_TRUE(request.is_ok());
  EXPECT_EQ(request->cycle_id, 11u);
  // The TCP write queue dropped its reference once flushed.
  EXPECT_TRUE(eventually([&] { return shared.use_count() == 1; }));
}

TEST(BroadcastTest, TcpWritevCoalescesBurstOfFrames) {
  // Queue a burst of shared + owned frames; all must arrive intact and
  // in order through the vectored write path.
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  Queue<wire::Frame> received;
  server->set_frame_handler(
      [&](ConnId, wire::Frame frame) { received.push(std::move(frame)); });

  const ConnId conn = client->connect(server->address()).value();
  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(
          client->send_shared(conn, proto::to_shared_frame(make_request(i)))
              .is_ok());
    } else {
      ASSERT_TRUE(
          client->send(conn, proto::to_frame(make_request(i))).is_ok());
    }
  }
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    auto frame = received.pop_for(seconds(5));
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    const auto request = proto::from_frame<proto::CollectRequest>(*frame);
    ASSERT_TRUE(request.is_ok());
    EXPECT_EQ(request->cycle_id, i);  // in order
  }
}

TEST(BroadcastTest, SendSharedOnClosedConnectionFails) {
  InProcNetwork net;
  auto sender = net.bind("sender", {}).value();
  auto receiver = net.bind("receiver", {}).value();
  const ConnId conn = sender->connect("receiver").value();
  sender->close(conn);
  const Status status =
      sender->send_shared(conn, proto::to_shared_frame(make_request(1)));
  EXPECT_FALSE(status.is_ok());
}

}  // namespace
}  // namespace sds::transport
