#include "transport/inproc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/queue.h"
#include "proto/messages.h"

namespace sds::transport {
namespace {

using namespace std::chrono_literals;

wire::Frame test_frame(std::uint16_t type, std::size_t payload_size = 4) {
  wire::Frame frame;
  frame.type = type;
  frame.payload.assign(payload_size, 0x5A);
  return frame;
}

/// Waits for a condition with a deadline (events are asynchronous).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 2000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(InProcTest, BindConnectSend) {
  InProcNetwork net;
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();

  Queue<wire::Frame> received;
  server->set_frame_handler(
      [&](ConnId, wire::Frame frame) { received.push(std::move(frame)); });

  auto conn = client->connect("server");
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(client->send(conn.value(), test_frame(7)).is_ok());

  auto frame = received.pop_for(seconds(2));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 7);
  EXPECT_EQ(frame->payload.size(), 4u);
}

TEST(InProcTest, DuplicateBindRejected) {
  InProcNetwork net;
  auto a = net.bind("addr", {}).value();
  auto b = net.bind("addr", {});
  EXPECT_FALSE(b.is_ok());
  EXPECT_EQ(b.status().code(), StatusCode::kAlreadyExists);
}

TEST(InProcTest, RebindAfterShutdown) {
  InProcNetwork net;
  {
    auto a = net.bind("addr", {}).value();
    a->shutdown();
  }
  auto b = net.bind("addr", {});
  EXPECT_TRUE(b.is_ok());
}

TEST(InProcTest, ConnectUnknownAddressFails) {
  InProcNetwork net;
  auto client = net.bind("client", {}).value();
  auto conn = client->connect("nowhere");
  EXPECT_FALSE(conn.is_ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kNotFound);
}

TEST(InProcTest, BidirectionalTraffic) {
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();

  Queue<std::uint16_t> at_a;
  Queue<std::pair<ConnId, std::uint16_t>> at_b;
  a->set_frame_handler([&](ConnId, wire::Frame f) { at_a.push(f.type); });
  b->set_frame_handler(
      [&](ConnId c, wire::Frame f) { at_b.push({c, f.type}); });

  const ConnId a_to_b = a->connect("b").value();
  ASSERT_TRUE(a->send(a_to_b, test_frame(1)).is_ok());
  auto got = at_b.pop_for(seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, 1);

  // Reply on the b-side connection id.
  ASSERT_TRUE(b->send(got->first, test_frame(2)).is_ok());
  auto reply = at_a.pop_for(seconds(2));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, 2);
}

TEST(InProcTest, OrderedDeliveryPerConnection) {
  InProcNetwork net;
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();

  std::vector<std::uint16_t> order;
  std::mutex mu;
  server->set_frame_handler([&](ConnId, wire::Frame f) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(f.type);
  });

  const ConnId conn = client->connect("server").value();
  for (std::uint16_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(i)).is_ok());
  }
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(mu);
    return order.size() == 500;
  }));
  std::lock_guard<std::mutex> lock(mu);
  for (std::uint16_t i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(InProcTest, ConnectionCapEnforced) {
  InProcNetwork net;
  EndpointOptions capped;
  capped.max_connections = 3;
  auto server = net.bind("server", capped).value();
  auto client = net.bind("client", {}).value();

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client->connect("server").is_ok()) << "conn " << i;
  }
  auto over = client->connect("server");
  EXPECT_FALSE(over.is_ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server->counters().connections_rejected, 1u);

  // Closing one frees a slot.
  // (Dial a fresh endpoint to avoid client-side bookkeeping noise.)
}

TEST(InProcTest, CapFreedAfterClose) {
  InProcNetwork net;
  EndpointOptions capped;
  capped.max_connections = 1;
  auto server = net.bind("server", capped).value();
  auto client = net.bind("client", {}).value();

  const ConnId first = client->connect("server").value();
  EXPECT_FALSE(client->connect("server").is_ok());
  client->close(first);
  ASSERT_TRUE(eventually(
      [&] { return server->counters().current_connections == 0; }));
  EXPECT_TRUE(client->connect("server").is_ok());
}

TEST(InProcTest, CloseNotifiesBothSides) {
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();

  std::atomic<int> a_closed{0};
  std::atomic<int> b_closed{0};
  a->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kClosed) a_closed.fetch_add(1);
  });
  b->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kClosed) b_closed.fetch_add(1);
  });

  const ConnId conn = a->connect("b").value();
  a->close(conn);
  EXPECT_TRUE(eventually([&] { return a_closed.load() == 1; }));
  EXPECT_TRUE(eventually([&] { return b_closed.load() == 1; }));
}

TEST(InProcTest, SendOnClosedConnectionFails) {
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  const ConnId conn = a->connect("b").value();
  a->close(conn);
  EXPECT_FALSE(a->send(conn, test_frame(1)).is_ok());
}

TEST(InProcTest, ShutdownClosesPeerConnections) {
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();

  std::atomic<int> b_closed{0};
  b->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kClosed) b_closed.fetch_add(1);
  });
  (void)a->connect("b").value();
  a->shutdown();
  EXPECT_TRUE(eventually([&] { return b_closed.load() == 1; }));
}

TEST(InProcTest, CountersTrackBytesAndMessages) {
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  b->set_frame_handler([](ConnId, wire::Frame) {});

  const ConnId conn = a->connect("b").value();
  const wire::Frame frame = test_frame(1, 100);
  ASSERT_TRUE(a->send(conn, frame).is_ok());

  const auto a_counters = a->counters();
  EXPECT_EQ(a_counters.messages_sent, 1u);
  EXPECT_EQ(a_counters.bytes_sent, frame.wire_size());
  EXPECT_EQ(a_counters.connections_dialed, 1u);

  const auto b_counters = b->counters();
  EXPECT_EQ(b_counters.messages_received, 1u);
  EXPECT_EQ(b_counters.bytes_received, frame.wire_size());
  EXPECT_EQ(b_counters.connections_accepted, 1u);
}

TEST(InProcTest, ManyConcurrentSenders) {
  InProcNetwork net;
  auto server = net.bind("server", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { received.fetch_add(1); });

  constexpr int kClients = 8;
  constexpr int kPerClient = 200;
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(net.bind("client" + std::to_string(i), {}).value());
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const ConnId conn = clients[i]->connect("server").value();
      for (int j = 0; j < kPerClient; ++j) {
        ASSERT_TRUE(clients[i]->send(conn, test_frame(1)).is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(
      eventually([&] { return received.load() == kClients * kPerClient; }));
}

TEST(InProcTest, SelfConnectionWorks) {
  InProcNetwork net;
  auto node = net.bind("node", {}).value();
  std::atomic<int> received{0};
  node->set_frame_handler([&](ConnId, wire::Frame) { received.fetch_add(1); });
  const ConnId conn = node->connect("node").value();
  ASSERT_TRUE(node->send(conn, test_frame(1)).is_ok());
  EXPECT_TRUE(eventually([&] { return received.load() == 1; }));
}

TEST(InProcTest, BatchedDeliveryKeepsSendOrderAndClosesLast) {
  // Written on the server's delivery thread only, read after `done`;
  // declared before the endpoints, whose threads use them.
  constexpr int kClosedMark = -1;
  std::vector<int> events;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> done;
  InProcNetwork net;
  auto server = net.bind("server", {}).value();
  auto client = net.bind("client", {}).value();
  server->set_frame_handler([&](ConnId, wire::Frame f) {
    // Hold the first frame until every frame and the close are queued,
    // so the rest arrive as one batch.
    if (events.empty()) released.wait();
    events.push_back(f.type);
  });
  server->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e != ConnEvent::kClosed) return;
    events.push_back(kClosedMark);
    done.set_value();
  });

  const ConnId conn = client->connect("server").value();
  constexpr int kFrames = 10'000;
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(
        client->send(conn, test_frame(static_cast<std::uint16_t>(i))).is_ok());
  }
  client->close(conn);
  release.set_value();
  ASSERT_EQ(done.get_future().wait_for(10s), std::future_status::ready);

  ASSERT_EQ(events.size(), static_cast<std::size_t>(kFrames) + 1);
  for (int i = 0; i < kFrames; ++i) ASSERT_EQ(events[i], i) << "event " << i;
  EXPECT_EQ(events.back(), kClosedMark);
}

// Each test below runs its handler on a's delivery thread by sending a
// trigger frame over a self-connection of a.

TEST(InProcHandlerSendTest, HandlerSendKeepsOrderAgainstOtherThreads) {
  // Frames seen by b, written on b's delivery thread only.
  std::vector<std::uint16_t> seen;
  std::promise<void> both_seen;
  std::promise<void> release;
  std::promise<void> second_sent;
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  b->set_frame_handler([&](ConnId, wire::Frame f) {
    seen.push_back(f.type);
    if (seen.size() == 2) both_seen.set_value();
  });
  ConnId conn;
  a->set_frame_handler([&](ConnId, wire::Frame) {
    // On a's delivery thread: frame 1, then hand over to another thread
    // and wait until its frame 2 is queued before the batch returns.
    ASSERT_TRUE(a->send(conn, test_frame(1)).is_ok());
    release.set_value();
    second_sent.get_future().wait();
  });
  conn = a->connect("b").value();
  std::thread other([&] {
    release.get_future().wait();
    EXPECT_TRUE(a->send(conn, test_frame(2)).is_ok());
    second_sent.set_value();
  });
  const ConnId self = a->connect("a").value();  // reaches a's handler
  ASSERT_TRUE(a->send(self, test_frame(9)).is_ok());
  ASSERT_EQ(both_seen.get_future().wait_for(10s), std::future_status::ready);
  other.join();
  EXPECT_EQ(seen, (std::vector<std::uint16_t>{1, 2}));
}

TEST(InProcHandlerSendTest, HandlerBurstReachesTwoIdlePeers) {
  constexpr int kBurst = 10'000;
  std::atomic<int> at_b{0};
  std::atomic<int> at_c{0};
  std::promise<void> b_done;
  std::promise<void> c_done;
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  auto c = net.bind("c", {}).value();
  // Frames carry their index, so the counts also check order.
  b->set_frame_handler([&](ConnId, wire::Frame f) {
    EXPECT_EQ(f.type, at_b.load());
    if (at_b.fetch_add(1) + 1 == kBurst) b_done.set_value();
  });
  c->set_frame_handler([&](ConnId, wire::Frame f) {
    EXPECT_EQ(f.type, at_c.load());
    if (at_c.fetch_add(1) + 1 == kBurst) c_done.set_value();
  });
  ConnId to_b;
  ConnId to_c;
  a->set_frame_handler([&](ConnId, wire::Frame) {
    for (int i = 0; i < kBurst; ++i) {
      const auto type = static_cast<std::uint16_t>(i);
      ASSERT_TRUE(a->send(to_b, test_frame(type)).is_ok());
      ASSERT_TRUE(a->send(to_c, test_frame(type)).is_ok());
    }
  });
  to_b = a->connect("b").value();
  to_c = a->connect("c").value();
  // Let b and c fall asleep on empty queues before the burst.
  std::this_thread::sleep_for(20ms);
  const ConnId self = a->connect("a").value();
  ASSERT_TRUE(a->send(self, test_frame(0)).is_ok());
  ASSERT_EQ(b_done.get_future().wait_for(10s), std::future_status::ready);
  ASSERT_EQ(c_done.get_future().wait_for(10s), std::future_status::ready);
  EXPECT_EQ(at_b.load(), kBurst);
  EXPECT_EQ(at_c.load(), kBurst);
}

TEST(InProcHandlerSendTest, HandlerSendThenCloseDeliversFrameFirst) {
  constexpr int kClosedMark = -1;
  // Written on b's delivery thread only, read after `done`.
  std::vector<int> events;
  std::promise<void> done;
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  b->set_frame_handler(
      [&](ConnId, wire::Frame f) { events.push_back(f.type); });
  b->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e != ConnEvent::kClosed) return;
    events.push_back(kClosedMark);
    done.set_value();
  });
  ConnId conn;
  a->set_frame_handler([&](ConnId, wire::Frame) {
    ASSERT_TRUE(a->send(conn, test_frame(5)).is_ok());
    a->close(conn);
  });
  conn = a->connect("b").value();
  const ConnId self = a->connect("a").value();
  ASSERT_TRUE(a->send(self, test_frame(0)).is_ok());
  ASSERT_EQ(done.get_future().wait_for(10s), std::future_status::ready);
  EXPECT_EQ(events, (std::vector<int>{5, kClosedMark}));
}

TEST(InProcHandlerSendTest, StagedFramesArriveBeforeAPeerInitiatedClose) {
  constexpr int kClosedMark = -1;
  // Written on b's delivery thread only, read after `done`.
  std::vector<int> events;
  std::promise<ConnId> b_side;
  std::promise<void> staged;
  std::promise<void> closed;
  const std::shared_future<void> closed_by_b = closed.get_future().share();
  std::promise<void> done;
  ConnId to_b;
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  b->set_frame_handler(
      [&](ConnId, wire::Frame f) { events.push_back(f.type); });
  b->set_conn_handler([&](ConnId conn, ConnEvent e) {
    if (e == ConnEvent::kOpened) {
      b_side.set_value(conn);
      return;
    }
    events.push_back(kClosedMark);
    done.set_value();
  });
  // On a's delivery thread: three frames wait in a's outbox while b
  // closes the connection, before a's batch returns.
  a->set_frame_handler([&](ConnId, wire::Frame) {
    for (std::uint16_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(a->send(to_b, test_frame(i)).is_ok());
    }
    staged.set_value();
    closed_by_b.wait();
  });
  to_b = a->connect("b").value();
  const ConnId b_conn = b_side.get_future().get();
  const ConnId self = a->connect("a").value();
  ASSERT_TRUE(a->send(self, test_frame(0)).is_ok());
  staged.get_future().wait();
  b->close(b_conn);
  closed.set_value();
  ASSERT_EQ(done.get_future().wait_for(10s), std::future_status::ready);
  EXPECT_EQ(events, (std::vector<int>{1, 2, 3, kClosedMark}));
}

TEST(InProcHandlerSendTest, HandlerBurstToASleepingPeerArrivesAfterOneWake) {
  constexpr int kBurst = 1000;
  std::atomic<int> at_b{0};
  std::promise<void> b_opened;
  std::promise<void> b_done;
  ConnId to_b;
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  auto trigger = net.bind("trigger", {}).value();
  b->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kOpened) b_opened.set_value();
  });
  b->set_frame_handler([&](ConnId, wire::Frame f) {
    EXPECT_EQ(f.type, at_b.load());
    if (at_b.fetch_add(1) + 1 == kBurst) b_done.set_value();
  });
  a->set_frame_handler([&](ConnId, wire::Frame) {
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(a->send(to_b, test_frame(static_cast<std::uint16_t>(i)))
                      .is_ok());
    }
  });
  to_b = a->connect("b").value();
  b_opened.get_future().wait();
  std::this_thread::sleep_for(20ms);  // b falls asleep on an empty queue
  const Counters before = a->counters();
  // The trigger comes from a third endpoint, so a's counters see only the
  // handler's burst.
  const ConnId to_a = trigger->connect("a").value();
  ASSERT_TRUE(trigger->send(to_a, test_frame(0)).is_ok());
  ASSERT_EQ(b_done.get_future().wait_for(10s), std::future_status::ready);
  const Counters after = a->counters();
  EXPECT_EQ(at_b.load(), kBurst);
  EXPECT_EQ(after.messages_sent - before.messages_sent,
            static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(after.handoffs - before.handoffs,
            (kBurst + kSendChunk - 1) / kSendChunk);
  // One wake when the batch returned, since b slept through the quiet
  // hand-overs; none if a loaded box kept b from falling asleep first.
  EXPECT_LE(after.wakeups - before.wakeups, 1u);
}

// Burst calls hand frames over a chunk at a time.

TEST(InProcBurstTest, SendAllKeepsOrderAgainstSendsFromAnotherThread) {
  // A 1,000-frame burst and 1,000 single sends from another thread share
  // four connections: each source's frames keep their order on every
  // connection across the burst's chunk boundaries. The burst runs from
  // a plain thread, and from a handler on a's delivery thread, where its
  // frames wait in the outbox until another thread's send takes them.
  constexpr std::uint16_t kConns = 4;
  constexpr std::uint16_t kFrames = 1000;
  for (const bool from_handler : {false, true}) {
    SCOPED_TRACE(from_handler ? "burst from a handler" : "burst from a thread");
    std::mutex mu;
    std::map<ConnId, std::vector<std::uint16_t>> seen;  // by b's ConnId
    std::size_t total = 0;
    std::vector<ConnId> conns;
    std::promise<void> start;
    const std::shared_future<void> started = start.get_future().share();
    InProcNetwork net;
    auto a = net.bind("a", {}).value();
    auto b = net.bind("b", {}).value();
    b->set_frame_handler([&](ConnId conn, wire::Frame f) {
      std::lock_guard<std::mutex> lock(mu);
      seen[conn].push_back(f.type);
      ++total;
    });
    for (std::uint16_t c = 0; c < kConns; ++c) {
      conns.push_back(a->connect("b").value());
    }
    // Burst frame i and single send kFrames + i both go on conns[i % 4].
    const auto burst = [&] {
      std::vector<std::pair<ConnId, wire::Frame>> sends;
      for (std::uint16_t i = 0; i < kFrames; ++i) {
        sends.emplace_back(conns[i % kConns], test_frame(i));
      }
      start.set_value();
      EXPECT_EQ(a->send_all(sends), kFrames);
    };
    std::thread singles([&] {
      started.wait();
      for (std::uint16_t i = 0; i < kFrames; ++i) {
        EXPECT_TRUE(a->send(conns[i % kConns],
                            test_frame(static_cast<std::uint16_t>(kFrames + i)))
                        .is_ok());
      }
    });
    if (from_handler) {
      a->set_frame_handler([&](ConnId, wire::Frame) { burst(); });
      const ConnId self = a->connect("a").value();
      ASSERT_TRUE(a->send(self, test_frame(0)).is_ok());
    } else {
      burst();
    }
    singles.join();
    ASSERT_TRUE(eventually([&] {
      std::lock_guard<std::mutex> lock(mu);
      return total == 2u * kFrames;
    }));
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(seen.size(), kConns);
    for (const auto& [conn, types] : seen) {
      std::vector<std::uint16_t> from_burst;
      std::vector<std::uint16_t> from_singles;
      for (const std::uint16_t type : types) {
        (type < kFrames ? from_burst : from_singles).push_back(type);
      }
      ASSERT_FALSE(from_burst.empty());
      const std::uint16_t lane = from_burst.front();
      std::vector<std::uint16_t> burst_order;
      std::vector<std::uint16_t> singles_order;
      for (std::uint16_t i = lane; i < kFrames; i += kConns) {
        burst_order.push_back(i);
        singles_order.push_back(static_cast<std::uint16_t>(kFrames + i));
      }
      EXPECT_EQ(from_burst, burst_order) << "lane " << lane;
      EXPECT_EQ(from_singles, singles_order) << "lane " << lane;
    }
  }
}

TEST(InProcBurstTest, SendAllSkipsClosedConnections) {
  std::atomic<int> received{0};
  InProcNetwork net;
  auto a = net.bind("a", {}).value();
  auto b = net.bind("b", {}).value();
  b->set_frame_handler([&](ConnId, wire::Frame) { received.fetch_add(1); });
  std::vector<ConnId> conns;
  for (int i = 0; i < 3; ++i) conns.push_back(a->connect("b").value());
  a->close(conns[1]);

  std::vector<std::pair<ConnId, wire::Frame>> sends;
  for (const ConnId conn : conns) sends.emplace_back(conn, test_frame(1));
  EXPECT_EQ(a->send_all(sends), 2u);
  const wire::SharedFrame shared =
      wire::SharedFrame::from_frame(test_frame(2));
  EXPECT_EQ(a->send_shared_all(conns, shared), 2u);
  EXPECT_TRUE(eventually([&] { return received.load() == 4; }));
  EXPECT_EQ(a->counters().messages_sent, 4u);
  EXPECT_EQ(b->counters().messages_received, 4u);
}

}  // namespace
}  // namespace sds::transport
