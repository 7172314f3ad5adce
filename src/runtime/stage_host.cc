#include "runtime/stage_host.h"

#include "common/log.h"

namespace sds::runtime {

StageHost::StageHost(transport::Network& network, std::string address,
                     StageHostOptions options, const Clock& clock)
    : network_(&network),
      address_(std::move(address)),
      options_(std::move(options)),
      clock_(&clock) {}

StageHost::~StageHost() { shutdown(); }

Status StageHost::start(const transport::EndpointOptions& endpoint_options) {
  {
    MutexLock lock(mu_);
    if (started_) return Status::failed_precondition("already started");
    auto endpoint = network_->bind(address_, endpoint_options);
    if (!endpoint.is_ok()) return endpoint.status();
    endpoint_ = std::move(endpoint).value();
    started_ = true;
  }
  dispatcher_.set_fallback(
      [this](ConnId conn, wire::Frame frame) { on_frame(conn, std::move(frame)); });
  endpoint_->set_frame_handler([this](ConnId conn, wire::Frame frame) {
    dispatcher_.on_frame(conn, std::move(frame));
  });
  endpoint_->set_conn_handler([this](ConnId conn, transport::ConnEvent event) {
    dispatcher_.on_conn_event(conn, event);
    on_conn_event(conn, event);
  });
  if (options_.telemetry.enabled) {
    telemetry::TelemetryOptions opts = options_.telemetry;
    if (opts.component == "sds") opts.component = "stage_host";
    telemetry_.init(opts, endpoint_.get(), dispatcher_);
    collects_counter_ = telemetry_.registry()->counter(
        "sds_stage_collects_answered_total", {{"component", opts.component}});
  }
  // Failover re-registration must not run on the endpoint's delivery
  // thread (the registration RPC waits for a reply that the delivery
  // thread routes), so a dedicated worker drains the failover queue.
  failover_thread_ = std::thread([this] {
    while (auto task = failover_queue_.pop()) {
      const Status status = register_stage(task->first, task->second);
      if (!status.is_ok()) {
        SDS_LOG(WARN) << address_
                      << ": re-registration failed: " << status.to_string();
      }
    }
  });
  return Status::ok();
}

Status StageHost::add_stage(proto::StageInfo info, stage::DemandFn data_demand,
                            stage::DemandFn meta_demand) {
  MutexLock lock(mu_);
  if (!by_stage_.try_emplace(info.stage_id, slots_.size()).second) {
    return Status::already_exists("stage " +
                                  std::to_string(info.stage_id.value()));
  }
  auto slot = std::make_unique<Slot>(Slot{
      stage::VirtualStage(std::move(info), std::move(data_demand),
                          std::move(meta_demand)),
      ConnId::invalid(), 0, proto::StageMetrics{}, false});
  slots_.push_back(std::move(slot));
  return Status::ok();
}

Status StageHost::register_all() {
  std::size_t count = 0;
  {
    MutexLock lock(mu_);
    if (!started_) return Status::failed_precondition("not started");
    count = slots_.size();
  }
  for (std::size_t i = 0; i < count; ++i) {
    bool needs_registration = false;
    {
      MutexLock lock(mu_);
      needs_registration = !slots_[i]->conn.valid();
    }
    if (needs_registration) SDS_RETURN_IF_ERROR(register_stage(i, 0));
  }
  return Status::ok();
}

Status StageHost::register_stage(std::size_t index, std::size_t address_index) {
  std::string target;
  proto::StageInfo info;
  {
    MutexLock lock(mu_);
    if (options_.controller_addresses.empty()) {
      return Status::failed_precondition("no controller addresses configured");
    }
    address_index %= options_.controller_addresses.size();
    target = options_.controller_addresses[address_index];
    info = slots_[index]->stage.info();
  }

  auto conn = endpoint_->connect(target);
  if (!conn.is_ok()) return conn.status();
  const ConnId c = conn.value();
  {
    MutexLock lock(mu_);
    slots_[index]->conn = c;
    slots_[index]->address_index = address_index;
    // New registration, new receiver-side store slot: the delta chain
    // restarts with a full report.
    slots_[index]->has_report = false;
    by_conn_[c] = index;
  }

  auto ack = rpc::call<proto::RegisterAck>(
      *endpoint_, dispatcher_, c, proto::RegisterRequest{std::move(info)},
      options_.register_timeout);
  if (!ack.is_ok() || !ack->accepted) {
    {
      MutexLock lock(mu_);
      by_conn_.erase(c);
      if (slots_[index]->conn == c) slots_[index]->conn = ConnId::invalid();
    }
    endpoint_->close(c);
    return ack.is_ok() ? Status::failed_precondition("registration rejected")
                       : ack.status();
  }
  return Status::ok();
}

void StageHost::on_frame(ConnId conn, wire::Frame frame) {
  using proto::MessageType;
  MutexLock lock(mu_);
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return;
  Slot& slot = *slots_[it->second];

  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kCollectRequest: {
      const auto request = proto::from_frame<proto::CollectRequest>(frame);
      if (!request.is_ok()) return;
      const Nanos begin = clock_->now();
      const auto metrics = slot.stage.collect(request->cycle_id, begin);
      ++collects_answered_;
      if (collects_counter_ != nullptr) collects_counter_->add();
      const auto reply_ctx =
          trace_hop(frame, "stage.collect", request->cycle_id, begin,
                    telemetry::SpanPhase::kCollect);
      if (options_.delta_metrics) {
        // Full refresh on the first report, on a cycle-sequence gap, and
        // periodically (staggered by stage id so refreshes spread over
        // cycles instead of bursting together).
        const bool refresh =
            !slot.has_report ||
            metrics.cycle_id != slot.last_report.cycle_id + 1 ||
            options_.delta_refresh == 0 ||
            (metrics.cycle_id + slot.stage.info().stage_id.value()) %
                    options_.delta_refresh ==
                0;
        if (refresh) {
          (void)endpoint_->send(conn, proto::to_frame(metrics, reply_ctx));
        } else {
          const proto::StageMetricsDelta delta = proto::StageMetricsDelta::make(
              slot.last_report, metrics, /*include_stage_id=*/false);
          (void)endpoint_->send(conn, proto::to_frame(delta, reply_ctx));
        }
        slot.last_report = metrics;
        slot.has_report = true;
      } else {
        (void)endpoint_->send(conn, proto::to_frame(metrics, reply_ctx));
      }
      break;
    }
    case MessageType::kEnforceBatch: {
      if (!proto::from_frame(frame, enforce_batch_).is_ok()) return;
      const Nanos begin = clock_->now();
      proto::EnforceAck ack;
      ack.cycle_id = enforce_batch_.cycle_id;
      for (const auto& rule : enforce_batch_.rules) {
        if (rule.stage_id == slot.stage.info().stage_id &&
            slot.stage.apply(rule)) {
          ++ack.applied;
        }
      }
      const auto reply_ctx =
          trace_hop(frame, "stage.enforce", enforce_batch_.cycle_id, begin,
                    telemetry::SpanPhase::kEnforce);
      (void)endpoint_->send(conn, proto::to_frame(ack, reply_ctx));
      break;
    }
    case MessageType::kHeartbeat: {
      const auto hb = proto::from_frame<proto::Heartbeat>(frame);
      if (!hb.is_ok()) return;
      proto::HeartbeatAck ack;
      ack.seq = hb->seq;
      (void)endpoint_->send(conn, proto::to_frame(ack));
      break;
    }
    default:
      SDS_LOG(DEBUG) << address_ << ": unexpected frame type " << frame.type;
  }
}

std::optional<wire::TraceContext> StageHost::trace_hop(
    const wire::Frame& frame, const char* name, std::uint64_t cycle,
    Nanos begin, telemetry::SpanPhase phase) {
  if (!frame.trace.has_value()) return std::nullopt;
  const wire::TraceContext& ctx = *frame.trace;
  const std::uint32_t track = telemetry_.track();
  telemetry::Span span;
  span.name = name;
  span.category = "component";
  span.track = track;
  span.cycle = cycle;
  span.start = begin;
  span.duration = clock_->now() - begin;
  HopSpanId& id = hop_span_ids_[static_cast<std::size_t>(phase)];
  if (id.span_id == 0 || id.trace_id != ctx.trace_id) {
    id = {ctx.trace_id, telemetry::derive_span_id(ctx.trace_id, track, name)};
  }
  span.trace_id = ctx.trace_id;
  span.span_id = id.span_id;
  span.parent_span = ctx.parent_span;
  span.phase = phase;
  telemetry_.flight().record(span);
  if (telemetry_.tracer() != nullptr) telemetry_.tracer()->record(span);
  // Replies carry our span as the parent so the controller side can link
  // any follow-on work to this hop.
  return wire::TraceContext{ctx.trace_id, span.span_id};
}

void StageHost::on_conn_event(ConnId conn, transport::ConnEvent event) {
  if (event != transport::ConnEvent::kClosed) return;
  MutexLock lock(mu_);
  if (shutting_down_ || !options_.auto_failover) return;
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return;
  const std::size_t index = it->second;
  by_conn_.erase(it);
  slots_[index]->conn = ConnId::invalid();
  SDS_LOG(INFO) << address_ << ": controller connection lost for stage "
                << slots_[index]->stage.info().stage_id
                << ", scheduling re-registration";
  failover_queue_.push({index, slots_[index]->address_index + 1});
}

Result<double> StageHost::stage_limit(StageId stage_id,
                                      stage::Dimension dim) const {
  MutexLock lock(mu_);
  const auto it = by_stage_.find(stage_id);
  if (it == by_stage_.end()) {
    return Status::not_found("stage " + std::to_string(stage_id.value()));
  }
  return slots_[it->second]->stage.limit(dim);
}

std::size_t StageHost::stage_count() const {
  MutexLock lock(mu_);
  return slots_.size();
}

std::uint64_t StageHost::collects_answered() const {
  MutexLock lock(mu_);
  return collects_answered_;
}

void StageHost::shutdown() {
  {
    MutexLock lock(mu_);
    if (!started_ || shutting_down_) return;
    shutting_down_ = true;
  }
  failover_queue_.close();
  if (failover_thread_.joinable()) failover_thread_.join();
  telemetry_.stop();
  endpoint_->shutdown();
}

}  // namespace sds::runtime
