#include "rpc/gather.h"

#include <algorithm>

namespace sds::rpc {

std::optional<std::uint64_t> peek_cycle_id(const wire::Frame& frame) {
  wire::Decoder dec(frame.payload);
  const std::uint64_t cycle = dec.get_varint();
  if (!dec.ok()) return std::nullopt;
  return cycle;
}

std::vector<Gather::Slot> Gather::sorted_index(
    const std::vector<ConnId>& expected) {
  std::vector<Slot> index;
  index.reserve(expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    index.push_back({expected[i], static_cast<std::uint32_t>(i)});
  }
  std::sort(index.begin(), index.end(),
            [](const Slot& a, const Slot& b) { return a.conn < b.conn; });
  return index;
}

Gather::Gather(proto::MessageType type, std::optional<std::uint64_t> cycle,
               std::vector<ConnId> expected,
               std::shared_ptr<const GatherTelemetry> telemetry,
               std::optional<proto::MessageType> alt_type)
    : type_(type),
      alt_type_(alt_type),
      cycle_(cycle),
      expected_(std::move(expected)),
      index_(sorted_index(expected_)),
      telemetry_(std::move(telemetry)),
      state_(expected_.size(), PeerState::kWaiting) {
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i == 0 || index_[i].conn != index_[i - 1].conn) ++pending_;
  }
  replies_.reserve(pending_);
  if (telemetry_ != nullptr) {
    telemetry_->gathers_started->add(1);
    telemetry_->fanout->record(static_cast<std::int64_t>(expected_.size()));
  }
}

bool Gather::settle(ConnId conn, PeerState state) {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), conn,
      [](const Slot& slot, ConnId c) { return slot.conn < c; });
  if (it == index_.end() || it->conn != conn ||
      state_[it->entry] != PeerState::kWaiting) {
    return false;
  }
  for (; it != index_.end() && it->conn == conn; ++it) {
    state_[it->entry] = state;
  }
  --pending_;
  return true;
}

void Gather::wake_if_done() {
  if (!waiter_ || !done(quorum_)) return;
  waiter_ = false;
  cv_.notify_one();
  if (telemetry_ != nullptr) telemetry_->wakeups->add(1);
}

bool Gather::offer(ConnId conn, wire::Frame& frame) {
  if (frame.type != static_cast<std::uint16_t>(type_) &&
      !(alt_type_.has_value() &&
        frame.type == static_cast<std::uint16_t>(*alt_type_))) {
    return false;
  }
  if (cycle_.has_value()) {
    const auto cycle = peek_cycle_id(frame);
    if (!cycle || *cycle != *cycle_) return false;
  }
  MutexLock lock(mu_);
  if (!settle(conn, PeerState::kReplied)) return false;
  replies_.push_back({conn, std::move(frame)});
  ++reply_count_;
  if (telemetry_ != nullptr) telemetry_->replies->add(1);
  wake_if_done();
  return true;
}

void Gather::fail(ConnId conn) {
  MutexLock lock(mu_);
  if (!settle(conn, PeerState::kFailed)) return;
  ++failed_;
  if (telemetry_ != nullptr) telemetry_->peer_failures->add(1);
  wake_if_done();
}

Status Gather::wait_for(Nanos timeout) {
  return wait_for(timeout, expected_.size());
}

Status Gather::wait_for(Nanos timeout, std::size_t quorum) {
  MutexLock lock(mu_);
  const auto started = std::chrono::steady_clock::now();
  quorum_ = quorum;
  waiter_ = true;
  cv_.wait_for(lock, timeout,
               [&]() SDS_REQUIRES(mu_) { return done(quorum); });
  waiter_ = false;
  const bool all_in = pending_ == 0;
  const bool quorum_met = reply_count_ >= quorum;
  if (telemetry_ != nullptr) {
    telemetry_->wave_latency_ns->record(
        std::chrono::duration_cast<Nanos>(std::chrono::steady_clock::now() -
                                          started));
    if (!all_in && !quorum_met) telemetry_->timeouts->add(1);
  }
  if (!all_in) {
    if (quorum_met) return Status::ok();  // degraded wave; see missing()
    return Status::deadline_exceeded(std::to_string(pending_) +
                                     " replies missing");
  }
  if (failed_ > 0) {
    return Status::unavailable(std::to_string(failed_) + " peers failed");
  }
  return Status::ok();
}

std::vector<Gather::Reply> Gather::take_replies() {
  MutexLock lock(mu_);
  return std::move(replies_);
}

std::size_t Gather::pending() const {
  MutexLock lock(mu_);
  return pending_;
}

std::size_t Gather::reply_count() const {
  MutexLock lock(mu_);
  return reply_count_;
}

std::size_t Gather::missing() const {
  MutexLock lock(mu_);
  return pending_;
}

std::vector<bool> Gather::reply_bitmap() const {
  MutexLock lock(mu_);
  std::vector<bool> bitmap(expected_.size(), false);
  for (std::size_t i = 0; i < expected_.size(); ++i) {
    bitmap[i] = state_[i] == PeerState::kReplied;
  }
  return bitmap;
}

void Dispatcher::set_fallback(FallbackHandler handler) {
  MutexLock lock(mu_);
  fallback_ = std::move(handler);
}

void Dispatcher::bind_telemetry(telemetry::MetricsRegistry& registry,
                                telemetry::Labels labels) {
  auto instruments = std::make_shared<GatherTelemetry>();
  instruments->gathers_started =
      registry.counter("sds_rpc_gathers_started_total", labels);
  instruments->replies = registry.counter("sds_rpc_replies_total", labels);
  instruments->timeouts =
      registry.counter("sds_rpc_gather_timeouts_total", labels);
  instruments->peer_failures =
      registry.counter("sds_rpc_peer_failures_total", labels);
  instruments->fanout = registry.histogram("sds_rpc_gather_fanout", labels);
  instruments->wave_latency_ns =
      registry.histogram("sds_rpc_gather_wave_latency_ns", labels);
  instruments->wakeups =
      registry.counter("sds_rpc_gather_wakeups_total", std::move(labels));
  MutexLock lock(mu_);
  telemetry_ = std::move(instruments);
}

std::shared_ptr<Gather> Dispatcher::start_gather(
    proto::MessageType type, std::optional<std::uint64_t> cycle,
    std::vector<ConnId> expected, std::optional<proto::MessageType> alt_type) {
  std::shared_ptr<const GatherTelemetry> telemetry;
  {
    MutexLock lock(mu_);
    telemetry = telemetry_;
  }
  auto gather = std::make_shared<Gather>(type, cycle, std::move(expected),
                                         std::move(telemetry), alt_type);
  MutexLock lock(mu_);
  gathers_.push_back(gather);
  return gather;
}

void Dispatcher::finish(const std::shared_ptr<Gather>& gather) {
  MutexLock lock(mu_);
  gathers_.erase(std::remove(gathers_.begin(), gathers_.end(), gather),
                 gathers_.end());
}

void Dispatcher::on_frame(ConnId conn, wire::Frame frame) {
  FallbackHandler fallback;
  {
    MutexLock lock(mu_);
    for (const auto& gather : gathers_) {
      if (gather->offer(conn, frame)) return;
    }
    fallback = fallback_;
  }
  if (fallback) fallback(conn, std::move(frame));
}

void Dispatcher::on_conn_event(ConnId conn, transport::ConnEvent event) {
  if (event != transport::ConnEvent::kClosed) return;
  MutexLock lock(mu_);
  for (const auto& gather : gathers_) gather->fail(conn);
}

}  // namespace sds::rpc
