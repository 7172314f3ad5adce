#include "transport/inproc.h"

#include <algorithm>
#include <array>
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
      conns_[local_id] = Peer{&outbox_to(peer), remote_id};
    }
    {
      MutexLock lock(peer->mu_);
      peer->conns_[remote_id] =
          Peer{&peer->outbox_to(shared_from_this()), local_id};
    }
    counters_.on_dial();
    peer->counters_.on_accept();
    enqueue_conn_event(local_id, ConnEvent::kOpened);
    peer->enqueue_conn_event(remote_id, ConnEvent::kOpened);
    return local_id;
  }

  Status send(ConnId conn, wire::Frame frame) {
    OneFrame one{conn, frame};
    return send_burst(one, 1) == 1 ? Status::ok()
                                   : Status::unavailable("connection closed");
  }

  /// Zero-copy send: the queue carries a reference to the shared wire
  /// image; the single payload copy happens on the receiving side at
  /// delivery (the copy a real NIC would make).
  Status send_shared(ConnId conn, const wire::SharedFrame& frame) {
    return send_shared_all({&conn, 1}, frame) == 1
               ? Status::ok()
               : Status::unavailable("connection closed");
  }

  std::size_t send_all(std::span<std::pair<ConnId, wire::Frame>> sends) {
    return send_burst(sends, sends.size());
  }

  std::size_t send_shared_all(std::span<const ConnId> conns,
                              const wire::SharedFrame& frame) {
    Broadcast wave{conns, frame, frame.wire_size()};
    return send_burst(wave, conns.size());
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
  /// One queued delivery: a unicast frame (its payload inline when it
  /// is a per-stage message), a shared broadcast image, or a connection
  /// event.
  struct Event {
    template <typename Body>
    Event(ConnId c, Body&& b) : conn(c), body(std::forward<Body>(b)) {}

    ConnId conn;
    std::variant<wire::Frame, wire::SharedFrame, ConnEvent> body;
  };

  /// Frames staged for one peer endpoint, shared by every connection to
  /// it so that they keep their send order across connections and
  /// threads. Guarded by the owning endpoint's mu_.
  struct Outbox {
    explicit Outbox(std::shared_ptr<InProcCore> p) : peer(std::move(p)) {}

    std::shared_ptr<InProcCore> peer;
    Ring<Event> chunk;       // at most kSendChunk frames: one block
    std::size_t bytes = 0;   // wire bytes of the frames in `chunk`
    std::size_t conns = 0;   // connections to `peer` that use this outbox
    bool wake_owed = false;  // a quiet hand-over found the peer asleep
    bool pending = false;    // listed in pending_ for the batch's end
  };
  static_assert(kSendChunk == Ring<Event>::kBlockSize,
                "a full chunk fills exactly one queue block");

  struct Peer {
    Outbox* outbox;
    ConnId remote_conn;
  };

  /// The waves send_burst() stages, one stage_one() overload each: one
  /// frame, per-connection frames, or one shared image on many
  /// connections.
  struct OneFrame {
    ConnId conn;
    wire::Frame& frame;
  };
  using Unicasts = std::span<std::pair<ConnId, wire::Frame>>;
  struct Broadcast {
    std::span<const ConnId> conns;
    const wire::SharedFrame& frame;
    std::size_t size;
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

  /// The outbox for `peer`, made by the first connection to it; counts
  /// one more connection that uses it.
  Outbox& outbox_to(std::shared_ptr<InProcCore> peer) SDS_REQUIRES(mu_) {
    const InProcCore* key = peer.get();
    Outbox& box = outboxes_.try_emplace(key, std::move(peer)).first->second;
    ++box.conns;
    return box;
  }

  /// Appends one frame for `conn` to its peer's outbox; null when the
  /// connection is closed.
  template <typename Body>
  Outbox* stage(ConnId conn, std::size_t size, Body&& body)
      SDS_REQUIRES(mu_) {
    const auto it = conns_.find(conn);
    if (it == conns_.end()) return nullptr;
    Outbox& box = *it->second.outbox;
    box.chunk.emplace_back(it->second.remote_conn, std::forward<Body>(body));
    box.bytes += size;
    return &box;
  }

  Outbox* stage_one(OneFrame& one, std::size_t) SDS_REQUIRES(mu_) {
    return stage(one.conn, one.frame.wire_size(), std::move(one.frame));
  }

  Outbox* stage_one(Unicasts& sends, std::size_t i) SDS_REQUIRES(mu_) {
    auto& [conn, frame] = sends[i];
    return stage(conn, frame.wire_size(), std::move(frame));
  }

  Outbox* stage_one(Broadcast& wave, std::size_t i) SDS_REQUIRES(mu_) {
    return stage(wave.conns[i], wave.size, wave.frame);  // a ref-count bump
  }

  /// Stages the first `count` frames of `wave` and returns how many found
  /// their connection open. The lock is taken once per kSendChunk frames,
  /// so no burst holds it for long, and a full outbox is handed over at
  /// once. On this endpoint's own delivery thread the rest waits for the
  /// batch to return (quiet hand-overs, one wake per peer then); any
  /// other thread hands over every outbox it staged into before it lets
  /// the lock go, waking sleeping peers at once.
  template <typename Wave>
  std::size_t send_burst(Wave& wave, std::size_t count) {
    const bool in_batch = delivering_ == this;
    std::size_t queued = 0;
    std::array<Outbox*, kSendChunk> touched;
    for (std::size_t i = 0; i < count;) {
      const std::size_t end = std::min(count, i + kSendChunk);
      std::size_t num_touched = 0;
      MutexLock lock(mu_);
      for (; i < end; ++i) {
        Outbox* box = stage_one(wave, i);
        if (box == nullptr) continue;
        ++queued;
        if (box->chunk.size() == kSendChunk) hand_over(*box, in_batch);
        if (in_batch) {
          if (!box->pending) {
            box->pending = true;
            pending_.push_back(box);
          }
        } else if (std::find(touched.begin(), touched.begin() + num_touched,
                             box) == touched.begin() + num_touched) {
          touched[num_touched++] = box;
        }
      }
      for (std::size_t t = 0; t < num_touched; ++t) {
        hand_over(*touched[t], /*quiet=*/false);
      }
    }
    return queued;
  }

  /// Moves `box`'s frames onto the peer's queue with one push, counted
  /// first so that the peer cannot deliver a frame its counters miss. A
  /// quiet hand-over leaves a sleeping peer asleep and notes the wake it
  /// owes; any other wakes a sleeping peer at once, which also pays what
  /// earlier quiet ones owed. A peer whose queue has closed drops the
  /// frames, as a stopped host would.
  void hand_over(Outbox& box, bool quiet) SDS_REQUIRES(mu_) {
    if (box.chunk.empty()) return;
    const std::size_t frames = box.chunk.size();
    counters_.on_send(box.bytes, frames);
    box.peer->counters_.on_receive(box.bytes, frames);
    counters_.on_handoff();
    box.bytes = 0;
    const bool owed =
        box.peer->queue_.push_quiet(box.chunk) == QuietPush::kWakeOwed;
    if (quiet) {
      box.wake_owed = box.wake_owed || owed;
    } else if (owed) {
      wake(box);
    } else {
      box.wake_owed = false;  // the peer is awake and takes them all
    }
  }

  void wake(Outbox& box) SDS_REQUIRES(mu_) {
    box.peer->queue_.wake();
    counters_.on_wakeup();
    box.wake_owed = false;
  }

  /// Hands over what the batch's handlers left staged and wakes each peer
  /// that slept through one of their hand-overs, once per batch.
  void flush_batch() SDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (Outbox* box : pending_) {
      hand_over(*box, /*quiet=*/true);
      if (box->wake_owed) wake(*box);
      box->pending = false;
    }
    pending_.clear();
  }

  /// Erases a connection after handing over its peer's outbox, so every
  /// frame staged for the peer is queued before the close that follows.
  /// The last connection to a peer takes its outbox with it.
  void drop_conn(std::unordered_map<ConnId, Peer>::iterator it)
      SDS_REQUIRES(mu_) {
    Outbox& box = *it->second.outbox;
    conns_.erase(it);
    hand_over(box, /*quiet=*/false);
    if (--box.conns > 0) return;
    if (box.pending) {
      pending_.erase(std::find(pending_.begin(), pending_.end(), &box));
    }
    outboxes_.erase(box.peer.get());
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
      peer = it->second.outbox->peer;
      remote_id = it->second.remote_conn;
      drop_conn(it);
    }
    release_slot();
    counters_.on_close();
    // The peer hands over what it staged for us before our own kClosed.
    peer->on_peer_closed(remote_id);
    if (notify_self) enqueue_conn_event(conn, ConnEvent::kClosed);
  }

  void on_peer_closed(ConnId conn) {
    {
      MutexLock lock(mu_);
      const auto it = conns_.find(conn);
      if (it == conns_.end()) return;
      drop_conn(it);
    }
    release_slot();
    counters_.on_close();
    enqueue_conn_event(conn, ConnEvent::kClosed);
  }

  /// Takes everything queued at each wake-up at once and copies the
  /// handlers once per batch. The batch's frames reach the frame handler
  /// in runs built in one buffer this thread keeps: a run ends when it
  /// holds kSendChunk frames, before a connection event and at the end of
  /// the batch, so events keep their queue order, frames stay FIFO per
  /// connection and connection events stay in place. The batch's blocks
  /// go back to the queue at the next pop_all(). What the batch's
  /// handlers sent leaves when the batch returns (flush_batch).
  void delivery_loop() {
    delivering_ = this;
    Ring<Event> batch;
    std::array<Delivery, kSendChunk> run;
    while (queue_.pop_all(batch)) {
      FrameHandler frame_handler;
      ConnEventHandler conn_handler;
      {
        MutexLock lock(mu_);
        frame_handler = frame_handler_;
        conn_handler = conn_handler_;
      }
      // sdscheck: hotpath — run building moves each frame into a kept slot
      std::size_t run_size = 0;
      const auto end_run = [&] {
        if (run_size == 0) return;
        counters_.on_delivery();
        frame_handler({run.data(), run_size});
        run_size = 0;
      };
      for (Event& ev : batch) {
        if (const auto* event = std::get_if<ConnEvent>(&ev.body)) {
          end_run();
          if (conn_handler) conn_handler(ev.conn, *event);
          continue;
        }
        if (!frame_handler) {
          SDS_LOG(WARN) << address_ << ": frame dropped (no handler)";
          continue;
        }
        Delivery& slot = run[run_size++];
        slot.conn = ev.conn;
        if (auto* shared = std::get_if<wire::SharedFrame>(&ev.body)) {
          // Shared frames materialize here: one payload copy,
          // receiver-side. The batch outlives this event, so the image
          // reference is dropped now rather than at the next wake-up.
          slot.frame = shared->to_frame();
          *shared = {};
        } else {
          slot.frame = std::move(std::get<wire::Frame>(ev.body));
        }
        if (run_size == kSendChunk) end_run();
      }
      end_run();
      // sdscheck: end-hotpath
      flush_batch();
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
  /// One outbox per peer endpoint; node-based, so Peer pointers into it
  /// stay valid.
  std::unordered_map<const InProcCore*, Outbox> outboxes_
      SDS_GUARDED_BY(mu_);
  /// Outboxes this endpoint's handlers staged into during the current
  /// batch.
  std::vector<Outbox*> pending_ SDS_GUARDED_BY(mu_);

  Queue<Event> queue_;
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
  std::size_t send_all(
      std::span<std::pair<ConnId, wire::Frame>> sends) override {
    return core_->send_all(sends);
  }
  std::size_t send_shared_all(std::span<const ConnId> conns,
                              const wire::SharedFrame& frame) override {
    return core_->send_shared_all(conns, frame);
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
