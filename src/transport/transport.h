// Transport abstraction connecting controllers and stages.
//
// An Endpoint is one participant's attachment to the network: it is bound
// to a string address, accepts inbound connections, dials outbound ones,
// and exchanges wire::Frame messages over established connections.
//
// Threading contract: the transport invokes `FrameHandler` and
// `ConnEventHandler` from a single delivery thread per endpoint, so
// handler code needs no internal locking against itself. `send()` and
// the burst calls are thread-safe and non-blocking (frames are queued
// for transmission).
//
// Frames reach the handler a run at a time: one call receives a span of
// at most kSendChunk deliveries, built in one buffer the endpoint keeps,
// so a handler can pay its locks, clock reads and reply sends once per
// run instead of once per frame.
//   - Runs keep arrival order: frames of one connection arrive in the
//     order they were sent, within a run and from one run to the next.
//   - A connection event ends the run being built. The frames that
//     arrived before a `kOpened` or `kClosed` are delivered, as a run,
//     before the event; those after it start a new run. So every frame a
//     connection carried reaches the handler before its `kClosed`.
//   - A run ends early at the end of what the delivery thread took at
//     once (in-process, one popped batch; over TCP, one event-loop
//     turn), so a run never waits for more frames.
//   - The handler may move frames out of the span; the endpoint reuses
//     the buffer once the call returns.
//
// Frames cross to another thread a chunk at a time. The in-process
// transport stages each send in a per-peer outbox under the endpoint's
// lock and hands the outbox to the peer's queue in chunks of at most
// kSendChunk frames, counting them first, so a frame is in its sender's
// and its receiver's counters before the receiver can deliver it:
//   - A handler's send on its own endpoint's delivery thread waits in
//     the outbox until a chunk fills or the delivery thread's batch
//     returns, so it leaves no earlier than the handler's run returns.
//     Full chunks are handed over without a signal; each peer that
//     slept through one is woken once, when the batch returns. TCP
//     likewise writes a handler's sends when its loop turn ends. A
//     handler must therefore not block waiting for a reply to its own
//     send.
//   - A send from any other thread hands over the peer's outbox together
//     with its own frame, so it lands behind every frame staged before
//     it, and wakes a sleeping peer at once. In-process, `send_all` and
//     `send_shared_all` take the lock and the peer's queue once per
//     chunk, not once per frame, and never hold the lock for a whole
//     burst; over TCP they queue a whole burst under one lock with at
//     most one eventfd write.
//   - `close()` hands over the outbox before the peer's `kClosed` is
//     queued, and the endpoint a peer closes on hands over what it
//     staged for that peer before the peer's own `kClosed` is queued, so
//     on both ends every frame sent on a connection arrives before its
//     close.
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
#include <span>
#include <string>
#include <type_traits>
#include <utility>

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
  /// Batches of frames handed to another thread: in-process, chunks put
  /// on a peer's queue; over TCP, writev calls.
  std::uint64_t handoffs = 0;
  /// Signals to a sleeping thread: in-process, wakes of a peer's queue;
  /// over TCP, eventfd writes.
  std::uint64_t wakeups = 0;
  /// Runs of frames handed to the frame handler (one call each).
  std::uint64_t deliveries = 0;
};

/// The most frames a transport hands to another thread at once (one
/// block of an in-process queue). Burst callers that encode their frames
/// in batches of this size keep no storage sized by their fan-out.
inline constexpr std::size_t kSendChunk = 64;

enum class ConnEvent { kOpened, kClosed };

/// One frame handed to a frame handler: the connection it arrived on and
/// the frame, which the handler may move out.
struct Delivery {
  ConnId conn;
  wire::Frame frame;
};

/// Receives a run of deliveries (see the threading contract above);
/// empty until a callable is installed.
class FrameHandler {
 public:
  FrameHandler() = default;

  template <typename F>
    requires std::is_invocable_v<F&, std::span<Delivery>>
  FrameHandler(F fn)  // NOLINT(google-explicit-constructor)
      : run_(std::move(fn)) {}

  /// A callable over one (ConnId, Frame) runs once per frame of each
  /// run, in order. sdsbench's transport probe (sdsbench/src/layers.cc)
  /// installs such callables; everything under src/ takes runs.
  template <typename F>
    requires(std::is_invocable_v<F&, ConnId, wire::Frame> &&
             !std::is_invocable_v<F&, std::span<Delivery>>)
  FrameHandler(F fn)  // NOLINT(google-explicit-constructor)
      : run_([fn = std::move(fn)](std::span<Delivery> run) mutable {
          for (Delivery& d : run) fn(d.conn, std::move(d.frame));
        }) {}

  explicit operator bool() const { return static_cast<bool>(run_); }
  void operator()(std::span<Delivery> run) const { run_(run); }

 private:
  std::function<void(std::span<Delivery>)> run_;
};

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

  /// Queue each frame on its connection, moving it out of `sends`, in
  /// order. Returns how many were queued; frames for closed connections
  /// are skipped. The default sends frame by frame; inproc/tcp override
  /// it to pay their locks and wake-ups once per chunk or burst.
  virtual std::size_t send_all(
      std::span<std::pair<ConnId, wire::Frame>> sends) {
    std::size_t queued = 0;
    for (auto& [conn, frame] : sends) {
      if (send(conn, std::move(frame)).is_ok()) ++queued;
    }
    return queued;
  }

  /// Queue one shared image on every connection in `conns`, in order.
  /// Returns how many were queued; closed connections are skipped. The
  /// default sends frame by frame, as `send_all` does.
  virtual std::size_t send_shared_all(std::span<const ConnId> conns,
                                      const wire::SharedFrame& frame) {
    std::size_t queued = 0;
    for (const ConnId conn : conns) {
      if (send_shared(conn, frame).is_ok()) ++queued;
    }
    return queued;
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

/// Thread-safe counter block shared by transport implementations. The
/// sent side, the received side, the connection counts and the delivered
/// runs sit on their own cache lines: in-process, a sender counts a chunk on its own sent
/// side and on the peer's received side, so the threads that send from
/// an endpoint and the threads that send to it never share a line.
class CounterBlock {
 public:
  void on_send(std::size_t bytes, std::size_t messages = 1) {
    sent_.bytes.fetch_add(bytes, std::memory_order_relaxed);
    sent_.messages.fetch_add(messages, std::memory_order_relaxed);
  }
  void on_receive(std::size_t bytes, std::size_t messages = 1) {
    received_.bytes.fetch_add(bytes, std::memory_order_relaxed);
    received_.messages.fetch_add(messages, std::memory_order_relaxed);
  }
  void on_handoff() { sent_.handoffs.fetch_add(1, std::memory_order_relaxed); }
  void on_wakeup() { sent_.wakeups.fetch_add(1, std::memory_order_relaxed); }
  void on_delivery() {
    delivered_.runs.fetch_add(1, std::memory_order_relaxed);
  }
  void on_accept() {
    conns_.accepted.fetch_add(1, std::memory_order_relaxed);
    conns_.current.fetch_add(1, std::memory_order_relaxed);
  }
  void on_dial() {
    conns_.dialed.fetch_add(1, std::memory_order_relaxed);
    conns_.current.fetch_add(1, std::memory_order_relaxed);
  }
  void on_reject() { conns_.rejected.fetch_add(1, std::memory_order_relaxed); }
  void on_close() { conns_.current.fetch_sub(1, std::memory_order_relaxed); }

  [[nodiscard]] Counters snapshot() const {
    Counters c;
    c.bytes_sent = sent_.bytes.load(std::memory_order_relaxed);
    c.bytes_received = received_.bytes.load(std::memory_order_relaxed);
    c.messages_sent = sent_.messages.load(std::memory_order_relaxed);
    c.messages_received = received_.messages.load(std::memory_order_relaxed);
    c.connections_accepted = conns_.accepted.load(std::memory_order_relaxed);
    c.connections_dialed = conns_.dialed.load(std::memory_order_relaxed);
    c.connections_rejected = conns_.rejected.load(std::memory_order_relaxed);
    c.current_connections = conns_.current.load(std::memory_order_relaxed);
    c.handoffs = sent_.handoffs.load(std::memory_order_relaxed);
    c.wakeups = sent_.wakeups.load(std::memory_order_relaxed);
    c.deliveries = delivered_.runs.load(std::memory_order_relaxed);
    return c;
  }

 private:
  struct alignas(64) Sent {
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> handoffs{0};
    std::atomic<std::uint64_t> wakeups{0};
  };
  struct alignas(64) Received {
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> messages{0};
  };
  struct alignas(64) Conns {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> dialed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> current{0};
  };
  /// Written only by the endpoint's own delivery thread.
  struct alignas(64) Delivered {
    std::atomic<std::uint64_t> runs{0};
  };
  Sent sent_;
  Received received_;
  Conns conns_;
  Delivered delivered_;
};

}  // namespace sds::transport
