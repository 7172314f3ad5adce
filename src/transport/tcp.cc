#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"

namespace sds::transport {

namespace {

constexpr int kMaxEpollEvents = 256;
/// Size of the endpoint-wide read scratch buffer: the most one read()
/// takes from a socket.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Pieces one queued frame takes in a writev: a unicast frame is its
/// header, its payload and its trace trailer; a broadcast image is one.
constexpr std::size_t kPiecesPerWrite = 3;
/// iovecs per writev call: 64 frames of up to three pieces each (well
/// under Linux's IOV_MAX).
constexpr std::size_t kMaxIov = 64 * kPiecesPerWrite;

/// The endpoint whose event loop runs on this thread (null elsewhere).
thread_local const void* t_loop_endpoint = nullptr;

Status errno_status(const std::string& what) {
  return Status::unavailable(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<sockaddr_in> parse_address(const std::string& address) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::invalid_argument("address must be host:port: " + address);
  }
  std::string host = address.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) {
    return Status::invalid_argument("bad port: " + port_str);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::invalid_argument("bad IPv4 host: " + host);
  }
  return addr;
}

/// One queued outbound frame: a unicast frame written straight from its
/// moved-in payload between its encoded header and trace trailer, or a
/// view into a ref-counted broadcast image shared with every other
/// destination of the same message. Either way nothing is serialized
/// into a second buffer, and a per-stage frame holds no heap memory.
struct WriteBuf {
  /// Unicast: the frame header, then the trace trailer when traced.
  wire::Bytes ends;
  /// Unicast: the message payload.
  wire::Bytes payload;
  /// Broadcast: the shared wire image (`ends` and `payload` stay empty).
  wire::SharedFrame shared;

  static WriteBuf unicast(wire::Frame&& frame) {
    WriteBuf buf;
    wire::Encoder enc(buf.ends);
    const std::size_t body = frame.payload.size() +
                             (frame.trace ? wire::kTraceContextSize : 0);
    wire::FrameHeader{frame.type,
                      frame.trace ? wire::kFlagTraceContext : std::uint16_t{0},
                      static_cast<std::uint32_t>(body)}
        .encode(enc);
    if (frame.trace) frame.trace->encode(enc);
    buf.payload = std::move(frame.payload);
    return buf;
  }

  static WriteBuf broadcast(const wire::SharedFrame& frame) {
    WriteBuf buf;
    buf.shared = frame;  // ref-count bump, no payload copy
    return buf;
  }

  [[nodiscard]] std::size_t size() const {
    return shared.empty() ? ends.size() + payload.size() : shared.wire_size();
  }

  /// Points `iov` (room for kPiecesPerWrite entries) at this frame's
  /// bytes after the first `skip`; returns how many entries it filled.
  std::size_t gather(iovec* iov, std::size_t skip) const {
    std::array<std::span<const std::uint8_t>, kPiecesPerWrite> pieces;
    if (shared.empty()) {
      const std::span<const std::uint8_t> ends_view(ends);
      pieces = {ends_view.first(wire::kFrameHeaderSize), payload,
                ends_view.subspan(wire::kFrameHeaderSize)};
    } else {
      pieces[0] = shared.wire_image();
    }
    std::size_t filled = 0;
    for (const auto piece : pieces) {
      if (skip >= piece.size()) {
        skip -= piece.size();
        continue;
      }
      iov[filled].iov_base = const_cast<std::uint8_t*>(piece.data() + skip);
      iov[filled].iov_len = piece.size() - skip;
      ++filled;
      skip = 0;
    }
    return filled;
  }
};

/// A send waiting in the endpoint's outbox for the event loop.
struct Outgoing {
  ConnId conn;
  WriteBuf buf;
};

/// A connect or close for the event loop. `outbox_mark` is the outbox
/// length when it was posted, so it runs after exactly the sends queued
/// before it.
struct Command {
  std::size_t outbox_mark = 0;
  std::function<void()> run;
};

/// Per-connection state owned by the event loop.
struct Conn {
  int fd = -1;
  ConnId id;
  /// The start of a frame whose last bytes have not arrived yet; complete
  /// frames are parsed straight out of the read scratch buffer.
  wire::Bytes tail;
  /// Small blocks: a connection rarely holds more than a few frames.
  Ring<WriteBuf, 4> write_queue;
  std::size_t write_offset = 0;  // into write_queue.front()
  bool want_write = false;       // EPOLLOUT armed: the socket refused bytes
  bool dirty = false;            // listed for this loop turn's flush
};

class TcpEndpoint final : public Endpoint {
 public:
  TcpEndpoint(const EndpointOptions& options) : options_(options) {}

  ~TcpEndpoint() override { shutdown(); }

  Status start(const std::string& requested_address) {
    auto addr = parse_address(requested_address);
    if (!addr.is_ok()) return addr.status();

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return errno_status("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr)) < 0) {
      return errno_status("bind " + requested_address);
    }
    if (::listen(listen_fd_, 1024) < 0) return errno_status("listen");
    set_nonblocking(listen_fd_);

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    char host[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
    address_ = std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return errno_status("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return errno_status("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

    scratch_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
    loop_thread_ = std::thread([this] { event_loop(); });
    return Status::ok();
  }

  const std::string& address() const override { return address_; }

  void set_frame_handler(FrameHandler handler) override {
    MutexLock lock(mu_);
    frame_handler_ = std::move(handler);
  }

  void set_conn_handler(ConnEventHandler handler) override {
    MutexLock lock(mu_);
    conn_handler_ = std::move(handler);
  }

  Result<ConnId> connect(const std::string& peer_address) override {
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::unavailable("endpoint shut down");
    }
    if (!try_reserve_slot()) {
      counters_.on_reject();
      return Status::resource_exhausted("local connection cap reached");
    }
    auto addr = parse_address(peer_address);
    if (!addr.is_ok()) {
      release_slot();
      return addr.status();
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      release_slot();
      return errno_status("socket");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr)) < 0) {
      ::close(fd);
      release_slot();
      return errno_status("connect " + peer_address);
    }
    set_nonblocking(fd);
    set_nodelay(fd);

    const ConnId id{next_conn_.fetch_add(1, std::memory_order_relaxed)};
    counters_.on_dial();
    post_command([this, fd, id] { register_conn(fd, id); });
    return id;
  }

  Status send(ConnId conn, wire::Frame frame) override {
    const std::size_t queued =
        queue_burst(1, frame.wire_size(), [&](std::size_t) {
          return Outgoing{conn, WriteBuf::unicast(std::move(frame))};
        });
    return queued == 1 ? Status::ok()
                       : Status::unavailable("endpoint shut down");
  }

  Status send_shared(ConnId conn, const wire::SharedFrame& frame) override {
    const ConnId conns[] = {conn};
    return send_shared_all(conns, frame) == 1
               ? Status::ok()
               : Status::unavailable("endpoint shut down");
  }

  std::size_t send_all(
      std::span<std::pair<ConnId, wire::Frame>> sends) override {
    std::size_t bytes = 0;
    for (const auto& [conn, frame] : sends) bytes += frame.wire_size();
    return queue_burst(sends.size(), bytes, [&](std::size_t i) {
      auto& [conn, frame] = sends[i];
      return Outgoing{conn, WriteBuf::unicast(std::move(frame))};
    });
  }

  std::size_t send_shared_all(std::span<const ConnId> conns,
                              const wire::SharedFrame& frame) override {
    return queue_burst(conns.size(), conns.size() * frame.wire_size(),
                       [&](std::size_t i) {
                         return Outgoing{conns[i], WriteBuf::broadcast(frame)};
                       });
  }

  void close(ConnId conn) override {
    post_command([this, conn] {
      const auto it = by_id_.find(conn);
      if (it == by_id_.end()) return;
      Conn& c = *it->second;
      // Frames sent before close() still leave first.
      if (!c.write_queue.empty() && !flush_writes(c)) return;
      close_conn(c, /*notify=*/true);
    });
  }

  void shutdown() override {
    if (stopping_.exchange(true, std::memory_order_acq_rel)) {
      if (loop_thread_.joinable()) loop_thread_.join();
      return;
    }
    wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  }

  Counters counters() const override { return counters_.snapshot(); }

 private:
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

  /// Appends `count` sends of `bytes` in total to the outbox, `next(i)`
  /// making the i-th, under one lock and with at most one eventfd write.
  /// Returns `count`, or 0 once the endpoint is shutting down.
  template <typename Next>
  std::size_t queue_burst(std::size_t count, std::size_t bytes, Next next) {
    if (count == 0 || stopping_.load(std::memory_order_acquire)) return 0;
    counters_.on_send(bytes, count);
    bool was_idle = false;
    {
      MutexLock lock(mu_);
      was_idle = outbox_.empty() && commands_.empty();
      for (std::size_t i = 0; i < count; ++i) outbox_.push_back(next(i));
    }
    wake_if_idle(was_idle);
    return count;
  }

  void post_command(std::function<void()> run) {
    bool was_idle = false;
    {
      MutexLock lock(mu_);
      was_idle = outbox_.empty() && commands_.empty();
      commands_.push_back({outbox_.size(), std::move(run)});
    }
    wake_if_idle(was_idle);
  }

  /// Only the first item into empty queues writes the eventfd, and never
  /// from the loop thread: it drains the queues before it next sleeps.
  void wake_if_idle(bool was_idle) {
    if (was_idle && t_loop_endpoint != this) wake();
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    counters_.on_wakeup();
  }

  // ------------------------------------------------------------------
  // Event-loop side (no external locking needed for conns_/by_id_).

  void event_loop() {
    t_loop_endpoint = this;
    std::vector<epoll_event> events(kMaxEpollEvents);
    while (!stopping_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), 100);
      if (n < 0 && errno != EINTR) break;
      {
        // One handler copy per turn, not per delivered frame.
        MutexLock lock(mu_);
        loop_frame_handler_ = frame_handler_;
        loop_conn_handler_ = conn_handler_;
      }
      for (int i = 0; i < n; ++i) {
        const auto& ev = events[i];
        if (ev.data.fd == wake_fd_) {
          std::uint64_t count;  // one read resets the eventfd counter
          [[maybe_unused]] const auto r = ::read(wake_fd_, &count, sizeof(count));
        } else if (ev.data.fd == listen_fd_) {
          accept_pending();
        } else {
          handle_conn_event(ev);
        }
      }
      run_pending();
    }
    // Teardown: close all connections without callbacks (endpoint gone).
    for (auto& [fd, conn] : conns_) ::close(conn.fd);
    conns_.clear();
    by_id_.clear();
    t_loop_endpoint = nullptr;
  }

  /// Runs the commands and sends queued since the last turn in the order
  /// they were posted, then flushes each connection that gained data with
  /// one writev. Repeats while handlers run here queue more.
  void run_pending() {
    while (true) {
      {
        MutexLock lock(mu_);
        pending_commands_.swap(commands_);
        pending_sends_.swap(outbox_);
      }
      if (pending_commands_.empty() && pending_sends_.empty()) return;
      std::size_t next = 0;
      for (Command& cmd : pending_commands_) {
        for (; next < cmd.outbox_mark; ++next) append_write(pending_sends_[next]);
        cmd.run();
      }
      for (; next < pending_sends_.size(); ++next) {
        append_write(pending_sends_[next]);
      }
      pending_commands_.clear();
      pending_sends_.clear();
      for (const ConnId id : dirty_) {
        const auto it = by_id_.find(id);
        if (it == by_id_.end()) continue;  // closed since its data arrived
        Conn& conn = *it->second;
        conn.dirty = false;
        // With EPOLLOUT armed the socket is full; its event resumes the flush.
        if (!conn.want_write) flush_writes(conn);
      }
      dirty_.clear();
    }
  }

  void accept_pending() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;
      if (!try_reserve_slot()) {
        counters_.on_reject();
        ::close(fd);
        continue;
      }
      set_nonblocking(fd);
      set_nodelay(fd);
      const ConnId id{next_conn_.fetch_add(1, std::memory_order_relaxed)};
      counters_.on_accept();
      register_conn(fd, id);
    }
  }

  void register_conn(int fd, ConnId id) {
    auto [it, _] = conns_.try_emplace(fd);
    Conn& conn = it->second;
    conn.fd = fd;
    conn.id = id;
    by_id_[id] = &conn;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    notify_conn(id, ConnEvent::kOpened);
  }

  void handle_conn_event(const epoll_event& ev) {
    const auto it = conns_.find(ev.data.fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (ev.events & (EPOLLHUP | EPOLLERR)) {
      close_conn(conn, /*notify=*/true);
      return;
    }
    if (ev.events & EPOLLIN) {
      if (!read_available(conn)) return;  // conn closed during read
    }
    if (ev.events & EPOLLOUT) flush_writes(conn);
  }

  /// One read() into the scratch buffer per readiness event, repeated
  /// only while reads fill it: epoll is level-triggered, so bytes left in
  /// the socket are reported again. Returns false if the connection was
  /// closed.
  bool read_available(Conn& conn) {
    while (true) {
      // A short tail is copied in front of the new bytes so the frame it
      // starts completes in place; a long one (a frame larger than half
      // the scratch) grows in the connection until it is whole.
      const bool in_scratch = conn.tail.size() <= kReadChunk / 2;
      const std::size_t have = in_scratch ? conn.tail.size() : 0;
      if (have > 0) std::memcpy(scratch_.get(), conn.tail.data(), have);
      const std::size_t room = kReadChunk - have;
      const ssize_t n = ::read(conn.fd, scratch_.get() + have, room);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
        close_conn(conn, /*notify=*/true);
        return false;
      }
      const auto got = static_cast<std::size_t>(n);
      if (!in_scratch) {
        conn.tail.insert(conn.tail.end(), scratch_.get(), scratch_.get() + got);
      }
      const std::span<const std::uint8_t> data =
          in_scratch ? std::span<const std::uint8_t>(scratch_.get(), have + got)
                     : std::span<const std::uint8_t>(conn.tail);
      const auto consumed = parse_frames(conn, data);
      if (!consumed) return false;
      if (in_scratch) {
        conn.tail.assign(data.begin() + static_cast<std::ptrdiff_t>(*consumed),
                         data.end());
      } else {
        conn.tail.erase(conn.tail.begin(),
                        conn.tail.begin() + static_cast<std::ptrdiff_t>(*consumed));
      }
      // A connection keeps no read memory between frames beyond a small tail.
      if (conn.tail.empty() && conn.tail.capacity() > kReadChunk) {
        wire::Bytes().swap(conn.tail);
      }
      if (got < room) return true;
    }
  }

  /// Delivers every complete frame in `data`; returns the bytes consumed,
  /// or nullopt if a protocol error closed the connection.
  std::optional<std::size_t> parse_frames(Conn& conn,
                                          std::span<const std::uint8_t> data) {
    std::size_t offset = 0;
    while (data.size() - offset >= wire::kFrameHeaderSize) {
      const auto rest = data.subspan(offset);
      auto header = wire::FrameHeader::decode(rest);
      if (!header.is_ok()) {
        SDS_LOG(WARN) << address_ << ": protocol error: "
                      << header.status().to_string();
        close_conn(conn, /*notify=*/true);
        return std::nullopt;
      }
      const std::size_t total = wire::kFrameHeaderSize + header->length;
      if (rest.size() < total) break;
      auto body = rest.subspan(wire::kFrameHeaderSize, header->length);
      const bool traced = (header->flags & wire::kFlagTraceContext) != 0;
      if (traced && body.size() < wire::kTraceContextSize) {
        SDS_LOG(WARN) << address_
                      << ": protocol error: trace flag on short frame";
        close_conn(conn, /*notify=*/true);
        return std::nullopt;
      }
      wire::Frame frame;
      frame.type = header->type;
      if (traced) {
        // The 16-byte trace trailer sits after the message payload; strip
        // it so the message decoders see exactly the payload bytes.
        frame.trace = wire::TraceContext::decode_trailer(
            body.last(wire::kTraceContextSize));
        body = body.first(body.size() - wire::kTraceContextSize);
      }
      frame.payload.assign(body.begin(), body.end());
      counters_.on_receive(total);
      // Handlers may send or close, but both only queue work for
      // run_pending(), so `conn` and `data` stay valid here.
      if (loop_frame_handler_) loop_frame_handler_(conn.id, std::move(frame));
      offset += total;
    }
    return offset;
  }

  void notify_conn(ConnId id, ConnEvent event) {
    if (loop_conn_handler_) loop_conn_handler_(id, event);
  }

  /// Moves one outbox entry onto its connection's write queue.
  void append_write(Outgoing& out) {
    const auto it = by_id_.find(out.conn);
    if (it == by_id_.end()) return;  // closed before the send ran
    Conn& conn = *it->second;
    if (options_.send_queue_limit != 0 &&
        conn.write_queue.size() >= options_.send_queue_limit) {
      // The limit bounds what the socket refused, not one turn's burst:
      // write what it takes before judging.
      if (!flush_writes(conn)) return;
      if (conn.write_queue.size() >= options_.send_queue_limit) {
        SDS_LOG(WARN) << address_ << ": send queue overflow, closing conn";
        close_conn(conn, /*notify=*/true);
        return;
      }
    }
    conn.write_queue.push_back(std::move(out.buf));
    if (!conn.dirty) {
      conn.dirty = true;
      dirty_.push_back(conn.id);
    }
  }

  /// Vectored flush: gathers the pieces of queued frames into one
  /// writev, so a burst of frames leaves in a single syscall instead of
  /// one write per frame. Returns false if the connection was closed.
  bool flush_writes(Conn& conn) {
    while (!conn.write_queue.empty()) {
      std::array<iovec, kMaxIov> iov;
      std::size_t iov_count = 0;
      std::size_t front_skip = conn.write_offset;
      for (const auto& buf : conn.write_queue) {
        if (iov_count + kPiecesPerWrite > kMaxIov) break;
        iov_count += buf.gather(iov.data() + iov_count, front_skip);
        front_skip = 0;
      }
      ssize_t n =
          ::writev(conn.fd, iov.data(), static_cast<int>(iov_count));
      counters_.on_handoff();
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn, /*notify=*/true);
        return false;
      }
      std::size_t written = static_cast<std::size_t>(n);
      while (written > 0) {
        const std::size_t front_remaining =
            conn.write_queue.front().size() - conn.write_offset;
        if (written >= front_remaining) {
          written -= front_remaining;
          conn.write_queue.pop_front();
          conn.write_offset = 0;
        } else {
          conn.write_offset += written;
          written = 0;
        }
      }
    }
    const bool want_write = !conn.write_queue.empty();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      epoll_event ev{};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      ev.data.fd = conn.fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    }
    return true;
  }

  void close_conn(Conn& conn, bool notify) {
    const ConnId id = conn.id;
    const int fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    by_id_.erase(id);
    conns_.erase(fd);  // `conn` is dangling after this line
    release_slot();
    counters_.on_close();
    if (notify) notify_conn(id, ConnEvent::kClosed);
  }

  const EndpointOptions options_;
  std::string address_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_conn_{1};
  std::atomic<std::size_t> slots_{0};

  Mutex mu_{LockRank::kTransportEndpoint};
  FrameHandler frame_handler_ SDS_GUARDED_BY(mu_);
  ConnEventHandler conn_handler_ SDS_GUARDED_BY(mu_);
  std::vector<Outgoing> outbox_ SDS_GUARDED_BY(mu_);
  std::vector<Command> commands_ SDS_GUARDED_BY(mu_);

  // Event-loop-thread-only state.
  std::unordered_map<int, Conn> conns_;       // sdscheck: allow(unguarded-field)
  std::unordered_map<ConnId, Conn*> by_id_;   // sdscheck: allow(unguarded-field)
  std::unique_ptr<std::uint8_t[]> scratch_;   // sdscheck: allow(unguarded-field)
  FrameHandler loop_frame_handler_;           // sdscheck: allow(unguarded-field)
  ConnEventHandler loop_conn_handler_;        // sdscheck: allow(unguarded-field)
  std::vector<Outgoing> pending_sends_;       // sdscheck: allow(unguarded-field)
  std::vector<Command> pending_commands_;     // sdscheck: allow(unguarded-field)
  std::vector<ConnId> dirty_;                 // sdscheck: allow(unguarded-field)

  CounterBlock counters_;
};

}  // namespace

Result<std::unique_ptr<Endpoint>> TcpNetwork::bind(
    const std::string& address, const EndpointOptions& options) {
  auto endpoint = std::make_unique<TcpEndpoint>(options);
  SDS_RETURN_IF_ERROR(endpoint->start(address));
  return std::unique_ptr<Endpoint>(std::move(endpoint));
}

}  // namespace sds::transport
