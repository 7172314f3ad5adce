#include "transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/queue.h"
#include "common/rng.h"

namespace sds::transport {
namespace {

using namespace std::chrono_literals;

wire::Frame test_frame(std::uint16_t type, std::size_t payload_size = 8) {
  wire::Frame frame;
  frame.type = type;
  frame.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i);
  }
  return frame;
}

/// The bytes a frame occupies on the stream: header, payload and, when
/// traced, the trace trailer.
wire::Bytes wire_image(const wire::Frame& frame) {
  return wire::Bytes(wire::SharedFrame::from_frame(frame).wire_image());
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 3000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// A plain blocking POSIX socket connected to an endpoint, for writing
/// bytes at cut points (or of a shape) no Endpoint would produce.
class RawClient {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so a peer
  /// that stops reading stalls the endpoint's writes quickly.
  explicit RawClient(const std::string& address, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    int one = 1;  // every write leaves as its own segment
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const auto colon = address.rfind(':');
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(std::stoi(address.substr(colon + 1))));
    ::inet_pton(AF_INET, address.substr(0, colon).c_str(), &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool write_all(std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
      // MSG_NOSIGNAL: a connection the endpoint closed fails the write
      // instead of killing the test with SIGPIPE.
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes = bytes.subspan(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// True once the endpoint has closed this connection; reads (and
  /// discards) whatever it sent first.
  bool sees_eof(std::chrono::milliseconds deadline) {
    timeval tick{0, 100'000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tick, sizeof(tick));
    const auto until = std::chrono::steady_clock::now() + deadline;
    std::vector<std::uint8_t> sink(64 * 1024);
    while (std::chrono::steady_clock::now() < until) {
      const ssize_t n = ::read(fd_, sink.data(), sink.size());
      if (n == 0) return true;
      if (n < 0 && errno == ECONNRESET) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// An endpoint client plus a round trip against an echoing server: the
/// check that a server still serves its other connections.
struct EchoClient {
  Queue<wire::Frame> echoes;  // outlives the endpoint that fills it
  std::unique_ptr<Endpoint> endpoint;
  ConnId conn;

  EchoClient(TcpNetwork& net, const std::string& server_address) {
    endpoint = net.bind("127.0.0.1:0", {}).value();
    endpoint->set_frame_handler(
        [this](ConnId, wire::Frame f) { echoes.push(std::move(f)); });
    conn = endpoint->connect(server_address).value();
  }

  bool round_trip(std::uint16_t type) {
    if (!endpoint->send(conn, test_frame(type, 32)).is_ok()) return false;
    auto echo = echoes.pop_for(seconds(5));
    return echo.has_value() && echo->type == type;
  }
};

TEST(TcpTest, BindEphemeralPortReportsAddress) {
  TcpNetwork net;
  auto endpoint = net.bind("127.0.0.1:0", {}).value();
  const std::string& addr = endpoint->address();
  EXPECT_NE(addr.find("127.0.0.1:"), std::string::npos);
  EXPECT_NE(addr, "127.0.0.1:0");  // a real port was chosen
}

TEST(TcpTest, BadAddressRejected) {
  TcpNetwork net;
  EXPECT_FALSE(net.bind("notanaddress", {}).is_ok());
  EXPECT_FALSE(net.bind("127.0.0.1:99999", {}).is_ok());
  EXPECT_FALSE(net.bind("300.1.1.1:80", {}).is_ok());
}

TEST(TcpTest, ConnectAndExchangeFrames) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  Queue<std::pair<ConnId, wire::Frame>> at_server;
  Queue<wire::Frame> at_client;
  server->set_frame_handler(
      [&](ConnId c, wire::Frame f) { at_server.push({c, std::move(f)}); });
  client->set_frame_handler(
      [&](ConnId, wire::Frame f) { at_client.push(std::move(f)); });

  auto conn = client->connect(server->address());
  ASSERT_TRUE(conn.is_ok()) << conn.status();

  const wire::Frame request = test_frame(5, 64);
  ASSERT_TRUE(client->send(conn.value(), request).is_ok());
  auto received = at_server.pop_for(seconds(3));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->second.type, 5);
  EXPECT_EQ(received->second.payload, request.payload);

  // Reply over the server-side connection.
  ASSERT_TRUE(server->send(received->first, test_frame(6, 16)).is_ok());
  auto reply = at_client.pop_for(seconds(3));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, 6);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpNetwork net;
  auto client = net.bind("127.0.0.1:0", {}).value();
  // Grab a port then free it so nothing is listening.
  std::string dead_address;
  {
    auto temp = net.bind("127.0.0.1:0", {}).value();
    dead_address = temp->address();
    temp->shutdown();
  }
  auto conn = client->connect(dead_address);
  EXPECT_FALSE(conn.is_ok());
}

TEST(TcpTest, LargeFrameCrossesReadChunks) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  Queue<wire::Frame> received;
  server->set_frame_handler(
      [&](ConnId, wire::Frame f) { received.push(std::move(f)); });

  const ConnId conn = client->connect(server->address()).value();
  const wire::Frame big = test_frame(9, 1 << 20);  // 1 MiB
  ASSERT_TRUE(client->send(conn, big).is_ok());

  auto frame = received.pop_for(seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), big.payload.size());
  EXPECT_EQ(frame->payload, big.payload);
}

TEST(TcpTest, ManyFramesInOrder) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  std::vector<std::uint16_t> order;
  std::mutex mu;
  server->set_frame_handler([&](ConnId, wire::Frame f) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(f.type);
  });

  const ConnId conn = client->connect(server->address()).value();
  constexpr int kFrames = 2000;
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client->send(conn, test_frame(i, 32)).is_ok());
  }
  ASSERT_TRUE(eventually(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return order.size() == kFrames;
      },
      5000ms));
  std::lock_guard<std::mutex> lock(mu);
  for (std::uint16_t i = 0; i < kFrames; ++i) EXPECT_EQ(order[i], i);
}

TEST(TcpTest, ConnectionCapRejectsExtraDials) {
  TcpNetwork net;
  EndpointOptions capped;
  capped.max_connections = 2;
  auto server = net.bind("127.0.0.1:0", capped).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  ASSERT_TRUE(client->connect(server->address()).is_ok());
  ASSERT_TRUE(client->connect(server->address()).is_ok());
  // The third dial succeeds at TCP level but the server closes it
  // immediately; observe via the rejected counter.
  (void)client->connect(server->address());
  EXPECT_TRUE(eventually(
      [&] { return server->counters().connections_rejected >= 1; }));
}

TEST(TcpTest, PeerShutdownNotifiesClient) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();

  std::atomic<int> closed{0};
  client->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kClosed) closed.fetch_add(1);
  });
  (void)client->connect(server->address()).value();
  // Let the server finish the accept before shutting down.
  ASSERT_TRUE(
      eventually([&] { return server->counters().connections_accepted == 1; }));
  server->shutdown();
  EXPECT_TRUE(eventually([&] { return closed.load() == 1; }));
}

TEST(TcpTest, CountersTrackTraffic) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler([](ConnId, wire::Frame) {});

  const ConnId conn = client->connect(server->address()).value();
  const wire::Frame frame = test_frame(1, 100);
  ASSERT_TRUE(client->send(conn, frame).is_ok());

  EXPECT_TRUE(eventually(
      [&] { return server->counters().bytes_received == frame.wire_size(); }));
  EXPECT_EQ(client->counters().bytes_sent, frame.wire_size());
  EXPECT_EQ(client->counters().messages_sent, 1u);
}

TEST(TcpTest, SendAfterShutdownFails) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  auto client = net.bind("127.0.0.1:0", {}).value();
  const ConnId conn = client->connect(server->address()).value();
  client->shutdown();
  EXPECT_FALSE(client->send(conn, test_frame(1)).is_ok());
}

TEST(TcpTest, StressManyClientsConcurrently) {
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  std::atomic<int> received{0};
  server->set_frame_handler([&](ConnId, wire::Frame) { received.fetch_add(1); });

  constexpr int kClients = 6;
  constexpr int kPerClient = 300;
  std::vector<std::unique_ptr<Endpoint>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(net.bind("127.0.0.1:0", {}).value());
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const ConnId conn = clients[i]->connect(server->address()).value();
      for (int j = 0; j < kPerClient; ++j) {
        ASSERT_TRUE(clients[i]->send(conn, test_frame(3, 48)).is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(eventually(
      [&] { return received.load() == kClients * kPerClient; }, 10000ms));
}

TEST(TcpTest, FramesSentBeforeCloseStillArrive) {
  // send() and close() reach the event loop by different queues; the
  // loop must still run them in the order they were called.
  Queue<int> events;  // frame types, then -1 for the close
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler(
      [&](ConnId, wire::Frame f) { events.push(f.type); });
  server->set_conn_handler([&](ConnId, ConnEvent e) {
    if (e == ConnEvent::kClosed) events.push(-1);
  });
  auto client = net.bind("127.0.0.1:0", {}).value();
  const ConnId conn = client->connect(server->address()).value();
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        client->send(conn, test_frame(static_cast<std::uint16_t>(i))).is_ok());
  }
  client->close(conn);
  for (int i = 0; i < kFrames; ++i) {
    auto event = events.pop_for(seconds(5));
    ASSERT_TRUE(event.has_value()) << "frame " << i << " never arrived";
    ASSERT_EQ(*event, i);
  }
  auto last = events.pop_for(seconds(5));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, -1);
}

/// The endpoint's read scratch buffer size: the most one read() takes.
constexpr std::size_t kReadChunk = 64 * 1024;

TEST(TcpTest, ReassemblesFramesCutAtRandomOffsets) {
  Queue<wire::Frame> received;
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler(
      [&](ConnId, wire::Frame f) { received.push(std::move(f)); });

  Rng rng(0x5EED'F4A3);
  constexpr std::size_t kFrames = 600;
  std::vector<wire::Frame> sent;
  wire::Bytes stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    wire::Frame frame;
    frame.type = static_cast<std::uint16_t>(i);
    std::size_t size = rng.next_below(400);
    if (i % 97 == 13) size = rng.next_below(20'000);
    if (i == 200) size = kReadChunk * 5 / 8;  // spans the tail threshold
    if (i == 300) size = kReadChunk * 3 + 17;  // larger than one read
    if (i == 400) size = 0;
    frame.payload.resize(size);
    for (auto& byte : frame.payload) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    if (i == 150 || i == 400) {
      frame.trace = wire::TraceContext{rng.next_u64(), rng.next_u64()};
    }
    const wire::Bytes bytes = wire_image(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
    sent.push_back(std::move(frame));
  }

  RawClient raw(server->address());
  ASSERT_TRUE(raw.connected());
  std::size_t pos = 0;
  std::size_t writes = 0;
  while (pos < stream.size()) {
    // Mostly cuts inside one header or one small frame, some across many
    // frames, and a few beyond the endpoint's read chunk.
    const std::uint64_t kind = rng.next_below(64);
    std::size_t cut = 0;
    if (kind < 40) {
      cut = 1 + rng.next_below(wire::kFrameHeaderSize + 4);
    } else if (kind < 60) {
      cut = 1 + rng.next_below(1'000);
    } else if (kind < 63) {
      cut = 1 + rng.next_below(12'000);
    } else {
      cut = kReadChunk / 2 + rng.next_below(kReadChunk);
    }
    cut = std::min(cut, stream.size() - pos);
    ASSERT_TRUE(raw.write_all(std::span(stream).subspan(pos, cut)));
    pos += cut;
    ++writes;
    // Often let the endpoint read this piece on its own.
    if (rng.bernoulli(0.3)) std::this_thread::sleep_for(50us);
  }
  EXPECT_GT(writes, 100u);

  for (std::size_t i = 0; i < kFrames; ++i) {
    auto got = received.pop_for(seconds(5));
    ASSERT_TRUE(got.has_value()) << "frame " << i << " never arrived";
    ASSERT_EQ(got->type, sent[i].type) << "frame " << i;
    ASSERT_TRUE(got->payload == sent[i].payload) << "frame " << i;
    ASSERT_EQ(got->trace, sent[i].trace) << "frame " << i;
  }
  EXPECT_EQ(server->counters().messages_received, kFrames);
  EXPECT_EQ(server->counters().bytes_received, stream.size());
}

/// Seeded frames around the payload's inline capacity (empty, just
/// under, exactly at, just over, a few times over) and some far over it,
/// each traced or untraced by a coin flip.
std::vector<wire::Frame> mixed_frames(Rng& rng, std::size_t count) {
  constexpr std::size_t kInline = wire::Bytes::kInlineCapacity;
  const std::size_t sizes[] = {0, 1, kInline - 1, kInline, kInline + 1,
                               3 * kInline};
  std::vector<wire::Frame> frames;
  for (std::size_t i = 0; i < count; ++i) {
    wire::Frame frame;
    frame.type = static_cast<std::uint16_t>(i);
    std::size_t size = sizes[rng.next_below(std::size(sizes))];
    if (rng.next_below(16) == 0) size = 1 + rng.next_below(3 * kReadChunk);
    frame.payload.resize(size);
    for (auto& byte : frame.payload) {
      byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    if (rng.bernoulli(0.5)) {
      frame.trace = wire::TraceContext{rng.next_u64(), rng.next_u64()};
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

void expect_received(Queue<wire::Frame>& received,
                     const std::vector<wire::Frame>& sent) {
  for (std::size_t i = 0; i < sent.size(); ++i) {
    auto got = received.pop_for(seconds(5));
    ASSERT_TRUE(got.has_value()) << "frame " << i << " never arrived";
    ASSERT_EQ(got->type, sent[i].type) << "frame " << i;
    ASSERT_TRUE(got->payload == sent[i].payload) << "frame " << i;
    ASSERT_EQ(got->trace, sent[i].trace) << "frame " << i;
  }
}

TEST(TcpTest, MixedInlineAndHeapFramesSurviveSplitsTracedAndUntraced) {
  Queue<wire::Frame> received;
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler(
      [&](ConnId, wire::Frame f) { received.push(std::move(f)); });
  Rng rng(0x1A1'5EED);

  // Read path: the frames' stream cut at seeded offsets, most of them
  // inside a header, a trailer or a small payload.
  const std::vector<wire::Frame> streamed = mixed_frames(rng, 400);
  wire::Bytes stream;
  for (const auto& frame : streamed) {
    const wire::Bytes bytes = wire_image(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  RawClient raw(server->address());
  ASSERT_TRUE(raw.connected());
  for (std::size_t pos = 0; pos < stream.size();) {
    std::size_t cut = 1 + rng.next_below(rng.bernoulli(0.8)
                                             ? wire::kFrameHeaderSize + 20
                                             : 2 * kReadChunk);
    cut = std::min(cut, stream.size() - pos);
    ASSERT_TRUE(raw.write_all(std::span(stream).subspan(pos, cut)));
    pos += cut;
    if (rng.bernoulli(0.2)) std::this_thread::sleep_for(50us);
  }
  expect_received(received, streamed);

  // Write path: the endpoint writes each frame from its parts (unicast)
  // or from one shared image, alternating at random; the large frames
  // fill the socket, so writes stop and resume inside frames.
  auto client = net.bind("127.0.0.1:0", {}).value();
  const ConnId conn = client->connect(server->address()).value();
  const std::vector<wire::Frame> sent = mixed_frames(rng, 400);
  for (const auto& frame : sent) {
    const Status status =
        rng.bernoulli(0.5)
            ? client->send(conn, frame)
            : client->send_shared(conn, wire::SharedFrame::from_frame(frame));
    ASSERT_TRUE(status.is_ok());
  }
  expect_received(received, sent);
  std::size_t bytes = stream.size();
  for (const auto& frame : sent) bytes += frame.wire_size();
  EXPECT_TRUE(eventually([&] {
    return server->counters().bytes_received == bytes;
  }));
  EXPECT_EQ(client->counters().bytes_sent, bytes - stream.size());
}

TEST(TcpTest, BurstsKeepPerConnectionOrderThroughASplitStream) {
  // send_all and send_shared_all queue a whole burst under one outbox
  // lock; across three connections, every frame arrives whole and in its
  // connection's send order, though the large frames fill the sockets so
  // that writes stop and resume inside frames.
  Queue<std::pair<ConnId, wire::Frame>> received;
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler([&](ConnId c, wire::Frame f) {
    received.push({c, std::move(f)});
  });
  auto client = net.bind("127.0.0.1:0", {}).value();
  constexpr std::size_t kConns = 3;
  std::vector<ConnId> conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(client->connect(server->address()).value());
  }

  Rng rng(0xB0'5EED);
  std::vector<std::vector<wire::Frame>> expected(kConns);
  std::size_t frames = 0;
  std::size_t bytes = 0;
  for (int round = 0; round < 2; ++round) {
    // Frame i of a burst goes on conns[i % 3]; its type is unique.
    std::vector<wire::Frame> burst = mixed_frames(rng, 150);
    std::vector<std::pair<ConnId, wire::Frame>> sends;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      burst[i].type = static_cast<std::uint16_t>(round * 1000 + i);
      expected[i % kConns].push_back(burst[i]);
      bytes += burst[i].wire_size();
      sends.emplace_back(conns[i % kConns], std::move(burst[i]));
    }
    ASSERT_EQ(client->send_all(sends), sends.size());
    frames += sends.size();

    wire::Frame image = mixed_frames(rng, 1).front();
    image.type = static_cast<std::uint16_t>(round * 1000 + 999);
    image.payload.resize(2 * kReadChunk + 5);
    const wire::SharedFrame shared = wire::SharedFrame::from_frame(image);
    ASSERT_EQ(client->send_shared_all(conns, shared), kConns);
    for (auto& lane : expected) lane.push_back(image);
    frames += kConns;
    bytes += kConns * image.wire_size();
  }

  // Each server-side connection's first frame names its lane.
  std::map<ConnId, std::vector<wire::Frame>> arrived;
  for (std::size_t i = 0; i < frames; ++i) {
    auto got = received.pop_for(seconds(5));
    ASSERT_TRUE(got.has_value()) << "frame " << i << " never arrived";
    arrived[got->first].push_back(std::move(got->second));
  }
  ASSERT_EQ(arrived.size(), kConns);
  for (const auto& [conn, lane] : arrived) {
    const std::vector<wire::Frame>& sent = expected[lane.front().type % kConns];
    ASSERT_EQ(lane.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ(lane[i].type, sent[i].type) << "frame " << i;
      ASSERT_TRUE(lane[i].payload == sent[i].payload) << "frame " << i;
      ASSERT_EQ(lane[i].trace, sent[i].trace) << "frame " << i;
    }
  }
  EXPECT_EQ(client->counters().messages_sent, frames);
  EXPECT_EQ(client->counters().bytes_sent, bytes);
  EXPECT_TRUE(eventually([&] {
    return server->counters().bytes_received == bytes;
  }));
}

TEST(TcpTest, BadHeaderClosesOnlyThatConnection) {
  Queue<ConnId> closed;  // declared first: the server's loop pushes to it
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_conn_handler([&](ConnId c, ConnEvent e) {
    if (e == ConnEvent::kClosed) closed.push(c);
  });
  server->set_frame_handler(
      [&](ConnId c, wire::Frame f) { (void)server->send(c, std::move(f)); });
  EchoClient client(net, server->address());
  ASSERT_TRUE(client.round_trip(1));

  wire::Bytes bad_magic = wire_image(test_frame(2));
  bad_magic[0] ^= 0xFF;
  wire::Encoder too_long;
  wire::FrameHeader{3, 0, wire::kMaxFramePayload + 1}.encode(too_long);
  for (const wire::Bytes& bytes : {bad_magic, too_long.take()}) {
    RawClient raw(server->address());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.write_all(bytes));
    EXPECT_TRUE(closed.pop_for(seconds(5)).has_value());
    EXPECT_TRUE(raw.sees_eof(5000ms));
    ASSERT_TRUE(client.round_trip(4));
  }
  EXPECT_FALSE(closed.try_pop().has_value());  // the good one stayed open
  EXPECT_EQ(server->counters().current_connections, 1u);
}

TEST(TcpTest, RepliesFromTheFrameHandlerArriveInOrder) {
  // The server answers on its own event-loop thread, on the connection
  // being parsed, as StageHost does.
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  server->set_frame_handler(
      [&](ConnId c, wire::Frame f) { (void)server->send(c, std::move(f)); });
  EchoClient client(net, server->address());

  constexpr std::uint16_t kFrames = 2000;
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.endpoint->send(client.conn, test_frame(i, 24)).is_ok());
  }
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    auto reply = client.echoes.pop_for(seconds(5));
    ASSERT_TRUE(reply.has_value()) << "reply " << i << " never arrived";
    ASSERT_EQ(reply->type, i);
    ASSERT_EQ(reply->payload.size(), 24u);
  }
}

TEST(TcpTest, SendQueueOverflowClosesOnlyTheStalledConnection) {
  Queue<ConnId> closed;  // declared first: the server's loop pushes to it
  TcpNetwork net;
  EndpointOptions options;
  options.send_queue_limit = 2;
  auto server = net.bind("127.0.0.1:0", options).value();
  server->set_conn_handler([&](ConnId c, ConnEvent e) {
    if (e == ConnEvent::kClosed) closed.push(c);
  });
  // Type 1 asks for a 1 MiB reply; anything else is echoed.
  server->set_frame_handler([&](ConnId c, wire::Frame f) {
    if (f.type == 1) f.payload.assign(1 << 20, 0xAB);
    (void)server->send(c, std::move(f));
  });
  EchoClient client(net, server->address());
  ASSERT_TRUE(client.round_trip(2));

  // Eight requests in one write: one parse pass queues eight large
  // replies to a peer that never reads them.
  RawClient stalled(server->address(), /*rcvbuf=*/4096);
  ASSERT_TRUE(stalled.connected());
  wire::Bytes burst;
  for (int i = 0; i < 8; ++i) {
    const wire::Bytes request = wire_image(test_frame(1));
    burst.insert(burst.end(), request.begin(), request.end());
  }
  ASSERT_TRUE(stalled.write_all(burst));

  ASSERT_TRUE(closed.pop_for(seconds(5)).has_value());
  EXPECT_TRUE(client.round_trip(3));
  EXPECT_FALSE(closed.try_pop().has_value());
  EXPECT_EQ(server->counters().current_connections, 1u);
  EXPECT_TRUE(stalled.sees_eof(5000ms));
}

// Frames reach the frame handler a run at a time.

/// A run-recording frame and connection handler: per-connection frame
/// types, run lengths, and each call in order (a run's frame types, or
/// kClosedMark for a close).
struct RunLog {
  static constexpr int kClosedMark = -1;

  void install(Endpoint& endpoint) {
    endpoint.set_frame_handler([this](std::span<Delivery> run) {
      std::lock_guard<std::mutex> lock(mu);
      ++runs;
      longest = std::max(longest, run.size());
      std::vector<int> types;
      for (const auto& [conn, frame] : run) {
        by_conn[conn].push_back(frame.type);
        types.push_back(frame.type);
      }
      calls.push_back(std::move(types));
      frames += run.size();
    });
    endpoint.set_conn_handler([this](ConnId, ConnEvent e) {
      if (e != ConnEvent::kClosed) return;
      std::lock_guard<std::mutex> lock(mu);
      calls.push_back({kClosedMark});
    });
  }

  std::size_t frames_seen() {
    std::lock_guard<std::mutex> lock(mu);
    return frames;
  }

  std::mutex mu;
  std::map<ConnId, std::vector<std::uint16_t>> by_conn;
  std::vector<std::vector<int>> calls;
  std::size_t frames = 0;
  std::size_t runs = 0;
  std::size_t longest = 0;
};

/// The wire images of frames of types 0..count-1, back to back.
wire::Bytes numbered_stream(std::uint16_t count) {
  wire::Bytes stream;
  for (std::uint16_t i = 0; i < count; ++i) {
    const wire::Bytes bytes = wire_image(test_frame(i));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

TEST(TcpRunTest, RunsKeepPerConnectionOrderUnderTheChunkCapThroughASplitStream) {
  constexpr std::uint16_t kFrames = 1500;  // per connection
  RunLog log;  // declared first: the server's loop writes to it
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  log.install(*server);

  // Two endpoint connections, interleaved in one burst.
  auto client = net.bind("127.0.0.1:0", {}).value();
  const std::vector<ConnId> conns = {client->connect(server->address()).value(),
                                     client->connect(server->address()).value()};
  std::vector<std::pair<ConnId, wire::Frame>> sends;
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    for (const ConnId conn : conns) sends.emplace_back(conn, test_frame(i));
  }
  ASSERT_EQ(client->send_all(sends), sends.size());

  // Two raw connections: one stream in a single write, one cut at seeded
  // offsets, most of them inside a frame.
  const wire::Bytes stream = numbered_stream(kFrames);
  RawClient whole(server->address());
  RawClient split(server->address());
  ASSERT_TRUE(whole.connected() && split.connected());
  ASSERT_TRUE(whole.write_all(stream));
  Rng rng(0x5'9117);
  for (std::size_t pos = 0; pos < stream.size();) {
    const std::size_t cut =
        std::min<std::size_t>(1 + rng.next_below(wire::kFrameHeaderSize + 40),
                              stream.size() - pos);
    ASSERT_TRUE(split.write_all(std::span(stream).subspan(pos, cut)));
    pos += cut;
    if (rng.bernoulli(0.05)) std::this_thread::sleep_for(50us);
  }

  constexpr std::size_t kTotal = 4 * std::size_t{kFrames};
  ASSERT_TRUE(eventually([&] { return log.frames_seen() == kTotal; }, 10'000ms));
  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.by_conn.size(), 4u);
  std::vector<std::uint16_t> in_order(kFrames);
  for (std::uint16_t i = 0; i < kFrames; ++i) in_order[i] = i;
  for (const auto& [conn, types] : log.by_conn) EXPECT_EQ(types, in_order);
  EXPECT_LE(log.longest, kSendChunk);
  EXPECT_LT(log.runs, kTotal);  // frames read together arrive together
  EXPECT_EQ(server->counters().deliveries, log.runs);
}

TEST(TcpRunTest, ACloseEndsTheRunBeforeItIsDelivered) {
  // Two good frames and a bad header arrive in one read: the frames
  // reach the handler as one run, then the close the bad header causes.
  RunLog log;  // declared first: the server's loop writes to it
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  log.install(*server);
  wire::Bytes bytes = numbered_stream(2);
  wire::Bytes bad = wire_image(test_frame(2));
  bad[0] ^= 0xFF;
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  RawClient raw(server->address());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.write_all(bytes));
  EXPECT_TRUE(raw.sees_eof(5000ms));
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(log.mu);
    return log.calls.size() == 2;
  }));
  std::lock_guard<std::mutex> lock(log.mu);
  EXPECT_EQ(log.calls,
            (std::vector<std::vector<int>>{{0, 1}, {RunLog::kClosedMark}}));
}

TEST(TcpRunTest, SendsDuringARunLeaveWhenItReturns) {
  constexpr std::uint16_t kFrames = 500;
  TcpNetwork net;
  auto server = net.bind("127.0.0.1:0", {}).value();
  std::atomic<std::uint64_t> writes_in_runs{0};
  server->set_frame_handler([&](std::span<Delivery> run) {
    const std::uint64_t before = server->counters().handoffs;
    for (auto& [conn, frame] : run) {
      ASSERT_TRUE(server->send(conn, std::move(frame)).is_ok());
    }
    // No writev while the run is being handled: the replies leave when
    // the loop turn that delivered the run ends.
    writes_in_runs += server->counters().handoffs - before;
  });
  EchoClient client(net, server->address());
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.endpoint->send(client.conn, test_frame(i)).is_ok());
  }
  for (std::uint16_t i = 0; i < kFrames; ++i) {
    auto reply = client.echoes.pop_for(seconds(5));
    ASSERT_TRUE(reply.has_value()) << "reply " << i << " never arrived";
    ASSERT_EQ(reply->type, i);
  }
  EXPECT_EQ(writes_in_runs.load(), 0u);
  EXPECT_GT(server->counters().handoffs, 0u);
}

}  // namespace
}  // namespace sds::transport
