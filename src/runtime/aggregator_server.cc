#include "runtime/aggregator_server.h"

#include <algorithm>

#include "common/log.h"
#include "rpc/broadcast.h"

namespace sds::runtime {

AggregatorServer::AggregatorServer(transport::Network& network,
                                   std::string address,
                                   AggregatorServerOptions options,
                                   const Clock& clock)
    : network_(&network),
      address_(std::move(address)),
      options_(std::move(options)),
      clock_(&clock),
      core_(core::AggregatorOptions{options_.id, /*preaggregate=*/true}) {}

AggregatorServer::~AggregatorServer() { shutdown(); }

Status AggregatorServer::start(
    const transport::EndpointOptions& endpoint_options) {
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
    if (event == transport::ConnEvent::kClosed) on_conn_closed(conn);
  });

  if (options_.telemetry.enabled) {
    telemetry::TelemetryOptions opts = options_.telemetry;
    if (opts.component == "sds") opts.component = "aggregator";
    telemetry_.init(opts, endpoint_.get(), dispatcher_);
    cycles_counter_ = telemetry_.registry()->counter(
        "sds_aggregator_cycles_served_total", {{"component", opts.component}});
  }

  worker_ = std::thread([this] {
    while (auto task = work_.pop()) (*task)();
  });

  auto upstream = endpoint_->connect(options_.upstream_address);
  if (!upstream.is_ok()) return upstream.status();
  {
    MutexLock lock(mu_);
    upstream_ = upstream.value();
  }
  proto::Heartbeat intro;
  intro.from = options_.id;
  intro.seq = 0;
  return endpoint_->send(upstream.value(), proto::to_frame(intro));
}

void AggregatorServer::on_frame(ConnId conn, wire::Frame frame) {
  using proto::MessageType;
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRegisterRequest: {
      const auto request = proto::from_frame<proto::RegisterRequest>(frame);
      if (!request.is_ok()) return;
      proto::RegisterAck ack;
      ConnId upstream;
      {
        MutexLock lock(mu_);
        // Upsert: a stage reconnecting (e.g. after a transient drop) may
        // re-register before its old connection is reaped.
        Status added = core_.registry().add(
            {request->info, conn, ControllerId::invalid()});
        if (added.code() == StatusCode::kAlreadyExists) {
          (void)core_.registry().remove(request->info.stage_id);
          added = core_.registry().add(
              {request->info, conn, ControllerId::invalid()});
        }
        ack.accepted = added.is_ok();
        ack.epoch = 0;
        if (added.is_ok()) stages_by_conn_[conn].push_back(request->info.stage_id);
        upstream = upstream_;
      }
      (void)endpoint_->send(conn, proto::to_frame(ack));
      // Forward upstream so the global controller learns the roster; the
      // upstream ack is informational and ignored here.
      if (ack.accepted && upstream.valid()) {
        (void)endpoint_->send(upstream, frame);
      }
      break;
    }
    case MessageType::kCollectRequest: {
      auto request = proto::from_frame<proto::CollectRequest>(frame);
      if (!request.is_ok()) return;
      work_.push([this, req = std::move(request).value(), ctx = frame.trace] {
        serve_collect(req, ctx);
      });
      break;
    }
    case MessageType::kEnforceBatch: {
      auto batch = proto::from_frame<proto::EnforceBatch>(frame);
      if (!batch.is_ok()) return;
      work_.push([this, b = std::move(batch).value(), ctx = frame.trace] {
        serve_enforce(b, ctx);
      });
      break;
    }
    case MessageType::kBudgetLease: {
      auto lease = proto::from_frame<proto::BudgetLease>(frame);
      if (!lease.is_ok()) return;
      work_.push([this, l = std::move(lease).value(), ctx = frame.trace] {
        serve_lease(l, ctx);
      });
      break;
    }
    case MessageType::kHeartbeat: {
      // Liveness probe from the global controller.
      const auto hb = proto::from_frame<proto::Heartbeat>(frame);
      if (!hb.is_ok()) return;
      proto::HeartbeatAck ack;
      ack.seq = hb->seq;
      (void)endpoint_->send(conn, proto::to_frame(ack));
      break;
    }
    case MessageType::kRegisterAck:
    case MessageType::kHeartbeatAck:
      break;  // upstream responses to forwarded traffic
    default:
      SDS_LOG(DEBUG) << address_ << ": unrouted frame type " << frame.type;
  }
}

std::optional<wire::TraceContext> AggregatorServer::child_context(
    const std::optional<wire::TraceContext>& ctx, const char* name) const {
  if (!ctx.has_value()) return std::nullopt;
  return wire::TraceContext{
      ctx->trace_id,
      telemetry::derive_span_id(ctx->trace_id, telemetry_.track(), name)};
}

void AggregatorServer::record_hop(const std::optional<wire::TraceContext>& ctx,
                                  const char* name, std::uint64_t cycle,
                                  Nanos begin, telemetry::SpanPhase phase) {
  if (!ctx.has_value()) return;
  const std::uint32_t track = telemetry_.track();
  telemetry::Span span;
  span.name = name;
  span.category = "component";
  span.track = track;
  span.cycle = cycle;
  span.start = begin;
  span.duration = clock_->now() - begin;
  span.trace_id = ctx->trace_id;
  span.span_id = telemetry::derive_span_id(ctx->trace_id, track, name);
  span.parent_span = ctx->parent_span;
  span.phase = phase;
  telemetry_.flight().record(span);
  if (telemetry_.tracer() != nullptr) telemetry_.tracer()->record(span);
}

void AggregatorServer::serve_collect(proto::CollectRequest request,
                                     std::optional<wire::TraceContext> ctx) {
  const Nanos begin = clock_->now();
  std::vector<ConnId> conns;
  ConnId upstream;
  {
    MutexLock lock(mu_);
    conns.reserve(core_.registry().size());
    core_.registry().for_each(
        [&](const core::StageRecord& record) { conns.push_back(record.conn); });
    upstream = upstream_;
    ++cycles_served_;
  }
  if (cycles_counter_ != nullptr) cycles_counter_->add();

  // Downstream hops hang off OUR span, so the stage-side spans nest under
  // this aggregator in the stitched trace.
  const auto child_ctx = child_context(ctx, "agg.collect");
  auto gather = dispatcher_.start_gather(proto::MessageType::kStageMetrics,
                                         request.cycle_id, std::move(conns));
  // Encode once; every stage connection queues the same shared image.
  rpc::broadcast(*endpoint_, gather->expected(), request, child_ctx);
  const Status wait = gather->wait_for(options_.phase_timeout);
  if (!wait.is_ok()) {
    SDS_LOG(WARN) << address_ << ": collect incomplete in cycle "
                  << request.cycle_id;
  }
  const std::vector<rpc::Gather::Reply> replies = gather->take_replies();
  std::vector<proto::StageMetrics> metrics;
  metrics.reserve(replies.size());
  for (const auto& reply : replies) {
    auto m = proto::from_frame<proto::StageMetrics>(reply.frame);
    if (m.is_ok()) metrics.push_back(std::move(m).value());
  }
  dispatcher_.finish(gather);

  proto::AggregatedMetrics report;
  {
    MutexLock lock(mu_);
    report = core_.aggregate(request.cycle_id, metrics);
    last_collected_ = std::move(metrics);
    last_collect_cycle_ = request.cycle_id;
  }
  record_hop(ctx, "agg.collect", request.cycle_id, begin,
             telemetry::SpanPhase::kCollect);
  if (upstream.valid()) {
    (void)endpoint_->send(upstream, proto::to_frame(report, child_ctx));
  }
}

void AggregatorServer::serve_lease(proto::BudgetLease lease,
                                   std::optional<wire::TraceContext> ctx) {
  std::vector<proto::Rule> rules;
  {
    MutexLock lock(mu_);
    core_.set_lease(lease);
    rules = core_.local_compute(
        lease.cycle_id, last_collected_,
        static_cast<std::uint64_t>(clock_->now().count()));
  }
  enforce_rules(lease.cycle_id, rules, ctx);
}

void AggregatorServer::serve_enforce(proto::EnforceBatch batch,
                                     std::optional<wire::TraceContext> ctx) {
  core::AggregatorCore::RoutedRules routed;
  {
    MutexLock lock(mu_);
    routed = core_.route(batch);
  }
  if (!routed.unknown.empty()) {
    SDS_LOG(WARN) << address_ << ": " << routed.unknown.size()
                  << " rules for unknown stages";
  }
  enforce_rules(batch.cycle_id, routed.owned, ctx);
}

void AggregatorServer::enforce_rules(
    std::uint64_t cycle_id, const std::vector<proto::Rule>& rules,
    const std::optional<wire::TraceContext>& ctx) {
  const Nanos begin = clock_->now();
  const auto child_ctx = child_context(ctx, "agg.enforce");
  ConnId upstream;
  // Each owned rule goes to its stage as a one-rule batch.
  std::vector<ConnId> conns;
  std::vector<const proto::Rule*> owned;
  conns.reserve(rules.size());
  owned.reserve(rules.size());
  {
    MutexLock lock(mu_);
    upstream = upstream_;
    for (const auto& rule : rules) {
      const core::StageRecord* record = core_.registry().find(rule.stage_id);
      if (record == nullptr) continue;
      conns.push_back(record->conn);
      owned.push_back(&rule);
    }
  }

  auto gather = dispatcher_.start_gather(proto::MessageType::kEnforceAck,
                                         cycle_id, std::move(conns));
  const std::vector<ConnId>& targets = gather->expected();
  proto::EnforceBatch single;
  single.cycle_id = cycle_id;
  single.rules.resize(1);
  // Encoded and sent a transport chunk at a time from one kept vector, so
  // the wave holds no frames sized by its fan-out.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    single.rules.front() = *owned[i];
    enforce_sends_.emplace_back(targets[i], proto::to_frame(single, child_ctx));
    if (enforce_sends_.size() == transport::kSendChunk ||
        i + 1 == targets.size()) {
      (void)endpoint_->send_all(enforce_sends_);
      enforce_sends_.clear();
    }
  }
  const Status wait = gather->wait_for(options_.phase_timeout);
  if (!wait.is_ok()) {
    SDS_LOG(WARN) << address_ << ": enforce incomplete in cycle "
                  << cycle_id;
  }
  const std::vector<rpc::Gather::Reply> replies = gather->take_replies();
  std::vector<proto::EnforceAck> acks;
  acks.reserve(replies.size());
  for (const auto& reply : replies) {
    auto ack = proto::from_frame<proto::EnforceAck>(reply.frame);
    if (ack.is_ok()) acks.push_back(std::move(ack).value());
  }
  dispatcher_.finish(gather);

  proto::EnforceAck merged;
  {
    MutexLock lock(mu_);
    merged = core_.merge_acks(cycle_id, acks);
  }
  record_hop(ctx, "agg.enforce", cycle_id, begin,
             telemetry::SpanPhase::kEnforce);
  if (upstream.valid()) {
    (void)endpoint_->send(upstream, proto::to_frame(merged, child_ctx));
  }
}

void AggregatorServer::on_conn_closed(ConnId conn) {
  MutexLock lock(mu_);
  if (conn == upstream_) {
    SDS_LOG(WARN) << address_ << ": upstream connection lost";
    upstream_ = ConnId::invalid();
    return;
  }
  if (const auto it = stages_by_conn_.find(conn); it != stages_by_conn_.end()) {
    for (const StageId stage : it->second) {
      // Skip stages that already re-registered over a newer connection.
      const core::StageRecord* record = core_.registry().find(stage);
      if (record != nullptr && record->conn == conn) {
        (void)core_.registry().remove(stage);
      }
    }
    stages_by_conn_.erase(it);
  }
}

std::size_t AggregatorServer::registered_stages() const {
  MutexLock lock(mu_);
  return core_.registry().size();
}

std::uint64_t AggregatorServer::cycles_served() const {
  MutexLock lock(mu_);
  return cycles_served_;
}

void AggregatorServer::shutdown() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  work_.close();
  if (worker_.joinable()) worker_.join();
  telemetry_.stop();
  endpoint_->shutdown();
}

}  // namespace sds::runtime
