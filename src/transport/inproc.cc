#include "transport/inproc.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/log.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/thread_annotations.h"

namespace sds::transport {

namespace detail {

/// Shared state for one in-process endpoint. Endpoint wrappers and remote
/// peers hold shared_ptrs, so a core outlives concurrent senders even if
/// its Endpoint has been destroyed.
class InProcCore : public std::enable_shared_from_this<InProcCore> {
 public:
  InProcCore(InProcNetwork* network, std::string address,
             const EndpointOptions& options)
      : network_(network), address_(std::move(address)), options_(options) {}

  ~InProcCore() { stop(); }

  void start() {
    delivery_thread_ = std::thread([this] { delivery_loop(); });
  }

  const std::string& address() const { return address_; }

  void set_frame_handler(FrameHandler handler) {
    MutexLock lock(mu_);
    frame_handler_ = std::move(handler);
  }

  void set_conn_handler(ConnEventHandler handler) {
    MutexLock lock(mu_);
    conn_handler_ = std::move(handler);
  }

  Result<ConnId> connect(const std::string& peer_address) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::unavailable("endpoint shut down");
    }
    auto peer = network_->lookup(peer_address);
    if (!peer) return Status::not_found("no endpoint at " + peer_address);

    if (!try_reserve_slot()) {
      counters_.on_reject();
      return Status::resource_exhausted("local connection cap reached");
    }
    if (!peer->try_reserve_slot()) {
      release_slot();
      peer->counters_.on_reject();
      return Status::resource_exhausted("peer connection cap reached at " +
                                        peer_address);
    }

    const ConnId local_id = next_conn_id();
    const ConnId remote_id = peer->next_conn_id();
    {
      MutexLock lock(mu_);
      conns_[local_id] = Peer{peer, remote_id};
    }
    {
      MutexLock lock(peer->mu_);
      peer->conns_[remote_id] = Peer{shared_from_this(), local_id};
    }
    counters_.on_dial();
    peer->counters_.on_accept();
    enqueue_conn_event(local_id, ConnEvent::kOpened);
    peer->enqueue_conn_event(remote_id, ConnEvent::kOpened);
    return local_id;
  }

  Status send(ConnId conn, wire::Frame frame) {
    const std::size_t size = frame.wire_size();
    return send_event(conn, Event{ConnId{}, std::move(frame)}, size);
  }

  /// Zero-copy send: the queue carries a reference to the shared wire
  /// image; the single payload copy happens on the receiving side at
  /// delivery (the copy a real NIC would make).
  Status send_shared(ConnId conn, const wire::SharedFrame& frame) {
    // A ref-count bump, no payload copy.
    return send_event(conn, Event{ConnId{}, frame}, frame.wire_size());
  }

  void close(ConnId conn) { close_impl(conn, /*notify_self=*/true); }

  void stop() {
    if (closed_.exchange(true, std::memory_order_acq_rel)) {
      if (delivery_thread_.joinable()) delivery_thread_.join();
      return;
    }
    // Close every remaining connection (notifies peers).
    std::vector<ConnId> open;
    {
      MutexLock lock(mu_);
      open.reserve(conns_.size());
      for (const auto& [id, _] : conns_) open.push_back(id);
    }
    for (const ConnId id : open) close_impl(id, /*notify_self=*/false);
    queue_.close();
    if (delivery_thread_.joinable()) delivery_thread_.join();
    network_->unbind(address_, this);
  }

  Counters counters() const { return counters_.snapshot(); }

 private:
  struct Peer {
    std::shared_ptr<InProcCore> core;
    ConnId remote_conn;
  };

  /// One queued delivery: a unicast frame (its payload inline when it
  /// is a per-stage message), a shared broadcast image, or a connection
  /// event.
  struct Event {
    ConnId conn;
    std::variant<wire::Frame, wire::SharedFrame, ConnEvent> body;
  };

  ConnId next_conn_id() {
    return ConnId{next_conn_.fetch_add(1, std::memory_order_relaxed)};
  }

  bool try_reserve_slot() {
    if (options_.max_connections == 0) {
      slots_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    std::size_t current = slots_.load(std::memory_order_relaxed);
    while (current < options_.max_connections) {
      if (slots_.compare_exchange_weak(current, current + 1,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void release_slot() { slots_.fetch_sub(1, std::memory_order_relaxed); }

  /// Queues a frame event on the peer at once, so it keeps its place
  /// against every other send on the connection. A send made by a
  /// handler on this endpoint's own delivery thread does not signal the
  /// peer: a peer that was asleep is woken once, when the batch returns.
  Status send_event(ConnId conn, Event ev, std::size_t size) {
    std::shared_ptr<InProcCore> peer;
    {
      MutexLock lock(mu_);
      const auto it = conns_.find(conn);
      if (it == conns_.end()) return Status::unavailable("connection closed");
      peer = it->second.core;
      ev.conn = it->second.remote_conn;
    }
    bool queued = true;
    if (delivering_ == this) {
      const QuietPush pushed = peer->queue_.push_quiet(std::move(ev));
      queued = pushed != QuietPush::kRejected;
      if (pushed == QuietPush::kWakeOwed &&
          std::find(wake_after_batch_.begin(), wake_after_batch_.end(),
                    peer) == wake_after_batch_.end()) {
        wake_after_batch_.push_back(peer);
      }
    } else {
      queued = peer->queue_.push(std::move(ev));
    }
    if (!queued) return Status::unavailable("peer shut down");
    counters_.on_send(size);
    peer->counters_.on_receive(size);
    return Status::ok();
  }

  void enqueue_conn_event(ConnId conn, ConnEvent event) {
    queue_.push(Event{conn, event});
  }

  void close_impl(ConnId conn, bool notify_self) {
    std::shared_ptr<InProcCore> peer;
    ConnId remote_id;
    {
      MutexLock lock(mu_);
      const auto it = conns_.find(conn);
      if (it == conns_.end()) return;
      peer = it->second.core;
      remote_id = it->second.remote_conn;
      conns_.erase(it);
    }
    release_slot();
    counters_.on_close();
    if (notify_self) enqueue_conn_event(conn, ConnEvent::kClosed);
    peer->on_peer_closed(remote_id);
  }

  void on_peer_closed(ConnId conn) {
    {
      MutexLock lock(mu_);
      if (conns_.erase(conn) == 0) return;
    }
    release_slot();
    counters_.on_close();
    enqueue_conn_event(conn, ConnEvent::kClosed);
  }

  /// Takes everything queued at each wake-up at once and copies the
  /// handlers once per batch; events keep their queue order, so frames
  /// stay FIFO per connection and connection events stay in place. The
  /// batch's blocks go back to the queue at the next pop_all(). Peers
  /// that the batch's handlers sent to while they slept are woken once,
  /// after the batch.
  void delivery_loop() {
    delivering_ = this;
    Ring<Event> batch;
    while (queue_.pop_all(batch)) {
      FrameHandler frame_handler;
      ConnEventHandler conn_handler;
      {
        MutexLock lock(mu_);
        frame_handler = frame_handler_;
        conn_handler = conn_handler_;
      }
      for (Event& ev : batch) {
        if (const auto* event = std::get_if<ConnEvent>(&ev.body)) {
          if (conn_handler) conn_handler(ev.conn, *event);
        } else if (!frame_handler) {
          SDS_LOG(WARN) << address_ << ": frame dropped (no handler)";
        } else if (auto* shared = std::get_if<wire::SharedFrame>(&ev.body)) {
          // Shared frames materialize here: one payload copy,
          // receiver-side. The batch outlives this event, so the image
          // reference is dropped now rather than at the next wake-up.
          wire::Frame frame = shared->to_frame();
          *shared = {};
          frame_handler(ev.conn, std::move(frame));
        } else {
          frame_handler(ev.conn, std::move(std::get<wire::Frame>(ev.body)));
        }
      }
      for (const auto& peer : wake_after_batch_) peer->queue_.wake();
      wake_after_batch_.clear();
    }
  }

  /// The endpoint whose delivery loop runs on this thread, if any.
  static thread_local const InProcCore* delivering_;

  InProcNetwork* network_;
  const std::string address_;
  const EndpointOptions options_;

  Mutex mu_{LockRank::kTransportEndpoint};
  FrameHandler frame_handler_ SDS_GUARDED_BY(mu_);
  ConnEventHandler conn_handler_ SDS_GUARDED_BY(mu_);
  std::unordered_map<ConnId, Peer> conns_ SDS_GUARDED_BY(mu_);

  Queue<Event> queue_;
  /// Peers owed a wake-up at the end of the current batch; touched only
  /// by the delivery thread.
  std::vector<std::shared_ptr<InProcCore>> wake_after_batch_;
  std::thread delivery_thread_;
  std::atomic<std::uint64_t> next_conn_{1};
  std::atomic<std::size_t> slots_{0};
  std::atomic<bool> closed_{false};
  CounterBlock counters_;
};

thread_local const InProcCore* InProcCore::delivering_ = nullptr;

namespace {

/// Thin Endpoint adapter over a shared core.
class InProcEndpoint final : public Endpoint {
 public:
  explicit InProcEndpoint(std::shared_ptr<InProcCore> core)
      : core_(std::move(core)) {}

  ~InProcEndpoint() override { core_->stop(); }

  const std::string& address() const override { return core_->address(); }
  void set_frame_handler(FrameHandler handler) override {
    core_->set_frame_handler(std::move(handler));
  }
  void set_conn_handler(ConnEventHandler handler) override {
    core_->set_conn_handler(std::move(handler));
  }
  Result<ConnId> connect(const std::string& peer_address) override {
    return core_->connect(peer_address);
  }
  Status send(ConnId conn, wire::Frame frame) override {
    return core_->send(conn, std::move(frame));
  }
  Status send_shared(ConnId conn, const wire::SharedFrame& frame) override {
    return core_->send_shared(conn, frame);
  }
  void close(ConnId conn) override { core_->close(conn); }
  void shutdown() override { core_->stop(); }
  Counters counters() const override { return core_->counters(); }

 private:
  std::shared_ptr<InProcCore> core_;
};

}  // namespace

}  // namespace detail

InProcNetwork::~InProcNetwork() = default;

Result<std::unique_ptr<Endpoint>> InProcNetwork::bind(
    const std::string& address, const EndpointOptions& options) {
  auto core = std::make_shared<detail::InProcCore>(this, address, options);
  {
    MutexLock lock(mu_);
    auto [it, inserted] = registry_.try_emplace(address, core);
    if (!inserted) {
      if (!it->second.expired()) {
        return Status::already_exists("address in use: " + address);
      }
      it->second = core;
    }
  }
  core->start();
  return std::unique_ptr<Endpoint>(new detail::InProcEndpoint(std::move(core)));
}

std::shared_ptr<detail::InProcCore> InProcNetwork::lookup(
    const std::string& address) {
  MutexLock lock(mu_);
  const auto it = registry_.find(address);
  return it == registry_.end() ? nullptr : it->second.lock();
}

void InProcNetwork::unbind(const std::string& address,
                           const detail::InProcCore* core) {
  MutexLock lock(mu_);
  const auto it = registry_.find(address);
  if (it == registry_.end()) return;
  const auto current = it->second.lock();
  if (current == nullptr || current.get() == core) registry_.erase(it);
}

}  // namespace sds::transport
