// Transport abstraction connecting controllers and stages.
//
// An Endpoint is one participant's attachment to the network: it is bound
// to a string address, accepts inbound connections, dials outbound ones,
// and exchanges wire::Frame messages over established connections.
//
// Threading contract: the transport invokes `FrameHandler` and
// `ConnEventHandler` from a single delivery thread per endpoint, so
// handler code needs no internal locking against itself. `send()` is
// thread-safe and non-blocking (frames are queued for transmission).
// A handler's own sends go out when its batch of deliveries returns:
// TCP writes them then, and the in-process transport queues them at
// once but wakes the peer then. A handler must therefore not block
// waiting for a reply to its own send.
//
// Connection caps: every endpoint enforces `max_connections` across
// inbound + outbound connections. This models the physical limit the
// paper identifies (a Frontera node sustains ~2,500 concurrent
// connections) and makes the flat design's ceiling reproducible: dials
// beyond the cap fail with kResourceExhausted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "wire/frame.h"
#include "wire/shared_frame.h"

namespace sds::transport {

/// Monotonic counters for Tables II–IV style accounting.
struct Counters {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dialed = 0;
  std::uint64_t connections_rejected = 0;  // over the cap
  std::uint64_t current_connections = 0;
};

enum class ConnEvent { kOpened, kClosed };

using FrameHandler = std::function<void(ConnId, wire::Frame)>;
using ConnEventHandler = std::function<void(ConnId, ConnEvent)>;

struct EndpointOptions {
  /// Combined inbound+outbound connection cap; 0 means unlimited.
  std::size_t max_connections = 0;
  /// Per-connection outbound queue bound (frames); 0 means unbounded.
  std::size_t send_queue_limit = 0;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  [[nodiscard]] virtual const std::string& address() const = 0;

  /// Install handlers. Must be called before the first connect/accept.
  virtual void set_frame_handler(FrameHandler handler) = 0;
  virtual void set_conn_handler(ConnEventHandler handler) = 0;

  /// Dial a peer; returns the local ConnId for the new connection.
  virtual Result<ConnId> connect(const std::string& peer_address) = 0;

  /// Queue a frame on an open connection.
  virtual Status send(ConnId conn, wire::Frame frame) = 0;

  /// Queue a pre-encoded shared frame without copying the payload —
  /// broadcast paths encode once and call this per connection. The
  /// default materializes a Frame (one copy) so every Endpoint keeps
  /// working; inproc/tcp override it with true zero-copy queues.
  virtual Status send_shared(ConnId conn, const wire::SharedFrame& frame) {
    return send(conn, frame.to_frame());
  }

  virtual void close(ConnId conn) = 0;

  /// Stop delivery, close all connections, join internal threads.
  virtual void shutdown() = 0;

  [[nodiscard]] virtual Counters counters() const = 0;
};

/// Factory for one flavour of network (in-process or TCP).
class Network {
 public:
  virtual ~Network() = default;

  /// Create an endpoint bound to `address` (must be unique per network).
  virtual Result<std::unique_ptr<Endpoint>> bind(
      const std::string& address, const EndpointOptions& options) = 0;
};

/// Thread-safe counter block shared by transport implementations.
class CounterBlock {
 public:
  void on_send(std::size_t bytes) {
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_receive(std::size_t bytes) {
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    messages_received_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_accept() {
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    current_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_dial() {
    connections_dialed_.fetch_add(1, std::memory_order_relaxed);
    current_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_reject() { connections_rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_close() { current_connections_.fetch_sub(1, std::memory_order_relaxed); }

  [[nodiscard]] Counters snapshot() const {
    Counters c;
    c.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    c.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    c.messages_sent = messages_sent_.load(std::memory_order_relaxed);
    c.messages_received = messages_received_.load(std::memory_order_relaxed);
    c.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
    c.connections_dialed = connections_dialed_.load(std::memory_order_relaxed);
    c.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
    c.current_connections = current_connections_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_dialed_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> current_connections_{0};
};

}  // namespace sds::transport
