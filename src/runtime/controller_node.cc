#include "runtime/controller_node.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/log.h"
#include "fault/plan.h"
#include "rpc/broadcast.h"

namespace sds::runtime {

namespace {

/// A controller child's entry in an enforce wave's routing: the child
/// gets a batch even when no rule routes to it.
constexpr std::size_t kNoRule = std::numeric_limits<std::size_t>::max();

/// Each stage's last accepted report, as `store` holds it.
std::vector<proto::StageMetrics> stored_reports(
    const core::MetricsStore& store) {
  std::vector<proto::StageMetrics> reports;
  reports.reserve(store.size());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    reports.push_back(store.reported(i));
  }
  return reports;
}

}  // namespace

ControllerNode::ControllerNode(
    transport::Network& network, std::string address,
    ControllerNodeOptions options,
    std::unique_ptr<policy::ControlAlgorithm> algorithm, const Clock& clock)
    : network_(&network),
      address_(std::move(address)),
      options_(std::move(options)),
      clock_(&clock),
      core_(options_.core, std::move(algorithm)),
      summarizer_(core::AggregatorOptions{options_.id, /*preaggregate=*/true}) {}

ControllerNode::~ControllerNode() { shutdown(); }

Status ControllerNode::start(
    const transport::EndpointOptions& endpoint_options) {
  {
    MutexLock lock(mu_);
    if (started_) return Status::failed_precondition("already started");
    auto endpoint = network_->bind(address_, endpoint_options);
    if (!endpoint.is_ok()) return endpoint.status();
    endpoint_ = std::move(endpoint).value();
    started_ = true;
  }
  dispatcher_.set_fallback([this](std::span<transport::Delivery> run) {
    for (auto& [conn, frame] : run) on_frame(conn, frame);
  });
  endpoint_->set_frame_handler(
      [this](std::span<transport::Delivery> run) { dispatcher_.on_frames(run); });
  endpoint_->set_conn_handler([this](ConnId conn, transport::ConnEvent event) {
    dispatcher_.on_conn_event(conn, event);
    if (event == transport::ConnEvent::kClosed) on_conn_closed(conn);
  });
  if (options_.telemetry.enabled) {
    std::string& component = options_.telemetry.component;
    if (component == "sds") component = is_root() ? "global" : "aggregator";
    const telemetry::Labels labels{{"component", component}};
    if (is_root()) {
      telemetry_.init(options_.telemetry, endpoint_.get(), dispatcher_,
                      [this] { return core::recent_cycles_json(stats_); });
      stats_.bind(telemetry_.registry(), labels);
      phase_probe_.bind(*telemetry_.registry(), labels);
      if (telemetry_.tracer() != nullptr) {
        telemetry_.tracer()->set_track_name(telemetry_.track(),
                                            "global controller");
      }
    } else {
      telemetry_.init(options_.telemetry, endpoint_.get(), dispatcher_);
      cycles_counter_ = telemetry_.registry()->counter(
          "sds_aggregator_cycles_served_total", labels);
    }
  }
  if (is_root()) return Status::ok();

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

void ControllerNode::on_frame(ConnId conn, wire::Frame& frame) {
  using proto::MessageType;
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRegisterRequest: {
      const auto request = proto::from_frame<proto::RegisterRequest>(frame);
      if (!request.is_ok()) return;
      const StageId stage = request->info.stage_id;
      proto::RegisterAck ack;
      ConnId upstream;
      {
        MutexLock lock(mu_);
        const auto child =
            std::ranges::find(controllers_, conn, &ControllerChild::conn);
        const ControllerId via = child != controllers_.end()
                                     ? child->id
                                     : ControllerId::invalid();
        // Registration is an upsert: after a failover, a stage's new
        // registration (via its new route) may arrive before the old
        // route's teardown — the latest registration wins.
        if (core_.registry().contains(stage)) {
          (void)core_.registry().remove(stage);
          SDS_LOG(INFO) << address_ << ": stage " << stage << " re-registered";
        }
        const Status added = core_.registry().add({request->info, conn, via});
        ack.accepted = added.is_ok();
        ack.epoch = core_.epoch();
        if (added.is_ok()) {
          stages_by_conn_[conn].push_back(stage);
          store_roster_changed_ = true;
        } else {
          SDS_LOG(WARN) << "registration rejected: " << added.to_string();
        }
        upstream = upstream_;
      }
      (void)endpoint_->send(conn, proto::to_frame(ack));
      // Forward upstream so the root learns the roster; the upstream ack
      // is informational and ignored here.
      if (ack.accepted && upstream.valid()) {
        (void)endpoint_->send(upstream, frame);
      }
      break;
    }
    case MessageType::kHeartbeat: {
      // From the parent, a liveness probe; from anyone else, a controller
      // child introducing itself (again, after a reconnect).
      const auto hb = proto::from_frame<proto::Heartbeat>(frame);
      if (!hb.is_ok()) return;
      {
        MutexLock lock(mu_);
        if (conn != upstream_) {
          std::erase_if(controllers_,
                        [conn](const auto& c) { return c.conn == conn; });
          controllers_.push_back({conn, hb->from});
          std::ranges::sort(controllers_, {}, &ControllerChild::id);
        }
      }
      proto::HeartbeatAck ack;
      ack.seq = hb->seq;
      (void)endpoint_->send(conn, proto::to_frame(ack));
      break;
    }
    case MessageType::kCollectRequest:
    case MessageType::kEnforceBatch:
    case MessageType::kBudgetLease:
      // The parent's waves, served on the worker thread.
      if (!is_root()) work_.push([this, f = std::move(frame)] { serve(f); });
      break;
    default:  // answers to forwarded registrations, late probe acks
      SDS_LOG(DEBUG) << address_ << ": unrouted frame type " << frame.type;
  }
}

void ControllerNode::on_conn_closed(ConnId conn) {
  MutexLock lock(mu_);
  if (conn == upstream_) {
    SDS_LOG(WARN) << address_ << ": upstream connection lost";
    upstream_ = ConnId::invalid();
    return;
  }
  const bool controller =
      std::erase_if(controllers_,
                    [conn](const auto& c) { return c.conn == conn; }) > 0;
  const auto it = stages_by_conn_.find(conn);
  if (it == stages_by_conn_.end()) return;
  // Every stage registered on the connection leaves — for a controller
  // child, its whole forwarded subtree — except the stages that already
  // re-registered over a different route.
  std::size_t removed = 0;
  for (const StageId stage : it->second) {
    const core::StageRecord* record = core_.registry().find(stage);
    if (record != nullptr && record->conn == conn) {
      (void)core_.registry().remove(stage);
      ++removed;
    }
  }
  stages_by_conn_.erase(it);
  store_roster_changed_ = true;
  if (controller) {
    SDS_LOG(WARN) << address_ << ": controller child lost, evicted "
                  << removed << " stages (they will re-register)";
  }
}

ControllerNode::Collected ControllerNode::collect(
    const proto::CollectRequest& request,
    const std::optional<wire::TraceContext>& ctx, Stopwatch& phase) {
  const std::uint64_t cycle = request.cycle_id;
  std::vector<ConnId> stage_conns;  // one entry per stage registered here
  std::vector<ConnId> controller_conns;
  {
    MutexLock lock(mu_);
    stage_conns.reserve(core_.registry().size());
    core_.registry().for_each([&](const core::StageRecord& record) {
      if (!record.via.valid()) stage_conns.push_back(record.conn);
    });
    std::ranges::transform(controllers_, std::back_inserter(controller_conns),
                           &ControllerChild::conn);
  }
  Collected out;
  out.controllers = controller_conns.size();
  // One gather per reply type that has peers to expect; a stage answers
  // with a full frame or a delta.
  const auto start = [&](proto::MessageType type, std::vector<ConnId> peers,
                         std::optional<proto::MessageType> alt = {}) {
    return peers.empty() ? nullptr
                         : dispatcher_.start_gather(type, cycle,
                                                    std::move(peers), alt);
  };
  const auto stages =
      start(proto::MessageType::kStageMetrics, std::move(stage_conns),
            proto::MessageType::kStageMetricsDelta);
  const auto controllers = start(proto::MessageType::kAggregatedMetrics,
                                 std::move(controller_conns));

  // One encode for the whole wave: every child queues the same
  // ref-counted wire image (trace trailer included).
  const wire::SharedFrame frame = proto::to_shared_frame(request, ctx);
  for (const auto* gather : {stages.get(), controllers.get()}) {
    if (gather != nullptr) endpoint_->send_shared_all(gather->expected(), frame);
  }
  const auto wait = [&](rpc::Gather* gather) {
    if (gather == nullptr) return Status::ok();
    return gather->wait_for(
        options_.phase_timeout,
        fault::quorum_count(options_.collect_quorum, gather->expected().size()));
  };
  const Status stage_wait = wait(stages.get());
  out.stages_closed = phase.elapsed();
  if (is_root() && options_.telemetry.enabled) phase_probe_.mark("collect");
  const Status child_wait = wait(controllers.get());
  if (!stage_wait.is_ok() || !child_wait.is_ok()) {
    SDS_LOG(WARN) << address_ << ": collect incomplete in cycle " << cycle;
  }

  // Root: a fresh reply from a peer marked missing closes its outage.
  const auto note_outcomes = [&](const rpc::Gather& gather) {
    const Nanos now = clock_->now();
    const auto replied = gather.reply_bitmap();
    for (std::size_t i = 0; i < replied.size(); ++i) {
      const ConnId conn = gather.expected()[i];
      if (!replied[i]) {
        missing_since_.emplace(conn, now);
      } else if (const auto it = missing_since_.find(conn);
                 it != missing_since_.end()) {
        stats_.record_recovery(now - it->second);
        missing_since_.erase(it);
      }
    }
  };
  std::vector<rpc::Gather::Reply> stage_replies;
  if (stages != nullptr) {
    if (is_root()) {
      out.stale += stages->missing();
      note_outcomes(*stages);
    }
    stage_replies = stages->take_replies();
    dispatcher_.finish(stages);
  }
  out.stage_replies = stage_replies.size();
  {
    MutexLock lock(mu_);
    sync_store(is_root() && out.controllers == 0);
    core::MetricsStore& store = summarizer_.store();
    std::size_t refused = 0;
    // sdscheck: hotpath — the per-reply fold: each report decodes on the
    // stack straight into its store slot.
    for (const auto& reply : stage_replies) {
      bool applied = false;
      if (reply.frame.type == static_cast<std::uint16_t>(
                                  proto::MessageType::kStageMetricsDelta)) {
        const auto delta =
            proto::from_frame<proto::StageMetricsDelta>(reply.frame);
        applied = delta.is_ok() &&
                  store.apply_delta(*delta, store_hint(reply.conn)) ==
                      core::DeltaStatus::kApplied;
      } else if (const auto metrics =
                     proto::from_frame<proto::StageMetrics>(reply.frame);
                 metrics.is_ok()) {
        (void)store.update(*metrics);
        applied = true;
      }
      if (!applied) ++refused;
    }
    // sdscheck: end-hotpath
    // A refused report (undecodable, non-finite, a delta on a broken base
    // chain) leaves the slot's previous report in force, as a silent
    // stage's does; a host's periodic full refresh re-anchors its stages'
    // delta chains. The root counts it stale.
    if (is_root()) out.stale += refused;
  }
  if (controllers != nullptr) {
    const std::vector<ConnId>& expected = controllers->expected();
    if (is_root()) {
      // A silent controller child makes its whole subtree stale.
      if (controllers->missing() > 0) {
        const auto replied = controllers->reply_bitmap();
        MutexLock lock(mu_);
        core_.registry().for_each([&](const core::StageRecord& record) {
          const auto at = std::ranges::find(expected, record.conn);
          if (at != expected.end() && !replied[at - expected.begin()]) {
            ++out.stale;
          }
        });
      }
      note_outcomes(*controllers);
    }
    // Summaries in child order, whatever order they arrived in.
    const std::vector<rpc::Gather::Reply> replies =
        controllers->take_replies();
    for (const ConnId conn : expected) {
      const auto reply =
          std::ranges::find(replies, conn, &rpc::Gather::Reply::conn);
      if (reply == replies.end()) continue;
      auto summary = proto::from_frame<proto::AggregatedMetrics>(reply->frame);
      if (!summary.is_ok()) continue;
      out.summaries.push_back(std::move(summary).value());
      out.summary_conns.push_back(conn);
    }
    dispatcher_.finish(controllers);
  }
  return out;
}

ControllerNode::Acks ControllerNode::enforce(
    std::uint64_t cycle, std::span<const proto::Rule> rules,
    const std::optional<wire::TraceContext>& ctx, Stopwatch& phase) {
  // Route each rule by the connection its stage registered on; every
  // controller child gets a batch, an empty one if no rule routes to it.
  routed_.clear();
  std::size_t unknown = 0;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const core::StageRecord* record =
          core_.registry().find(rules[i].stage_id);
      if (record == nullptr) {
        ++unknown;
      } else {
        routed_.emplace_back(record->conn, i);
      }
    }
    for (const ControllerChild& child : controllers_) {
      routed_.emplace_back(child.conn, kNoRule);
    }
  }
  if (unknown > 0) {
    SDS_LOG(WARN) << address_ << ": skipped " << unknown
                  << " rules for unknown stages in cycle " << cycle;
  }
  // Sorted (connection, rule index) pairs group each connection's rules
  // in their original order; rule order usually routes sorted already.
  if (!std::is_sorted(routed_.begin(), routed_.end())) {
    std::sort(routed_.begin(), routed_.end());
  }
  std::vector<ConnId> conns;
  conns.reserve(routed_.size());
  for (const auto& [conn, _] : routed_) {
    if (conns.empty() || conns.back() != conn) conns.push_back(conn);
  }
  Acks acks;
  if (conns.empty()) return acks;

  // The ack gather exists before the first send, so no fast ack is lost.
  auto gather = dispatcher_.start_gather(proto::MessageType::kEnforceAck,
                                         cycle, std::move(conns));
  // Encoded and sent a transport chunk at a time from one kept vector, so
  // the wave holds no frames sized by its fan-out.
  batch_.cycle_id = cycle;
  for (std::size_t i = 0; i < routed_.size();) {
    const ConnId conn = routed_[i].first;
    batch_.rules.clear();
    for (; i < routed_.size() && routed_[i].first == conn; ++i) {
      if (routed_[i].second != kNoRule) {
        batch_.rules.push_back(rules[routed_[i].second]);
      }
    }
    sends_.emplace_back(conn, proto::to_frame(batch_, ctx));
    if (sends_.size() == transport::kSendChunk || i == routed_.size()) {
      (void)endpoint_->send_all(sends_);
      sends_.clear();
    }
  }
  acks.disseminated = phase.elapsed();
  if (is_root() && options_.telemetry.enabled) {
    phase_probe_.mark("disseminate");
  }
  const Status wait = gather->wait_for(
      options_.phase_timeout,
      fault::quorum_count(options_.collect_quorum, gather->expected().size()));
  if (!wait.is_ok()) {
    SDS_LOG(WARN) << address_ << ": enforce incomplete in cycle " << cycle;
  }
  acks.missing = gather->missing();
  acks.replies = gather->take_replies();
  dispatcher_.finish(gather);
  return acks;
}

Result<core::PhaseBreakdown> ControllerNode::run_cycle() {
  if (!is_root()) {
    return Status::failed_precondition("run_cycle on a node with a parent");
  }
  proto::CollectRequest request;
  {
    MutexLock lock(mu_);
    if (core_.registry().size() == 0 && controllers_.empty()) {
      return Status::failed_precondition("no stages or aggregators registered");
    }
    request = core_.begin_cycle();
  }
  const std::uint64_t cycle = request.cycle_id;
  core::PhaseBreakdown breakdown;
  Stopwatch phase(*clock_);
  const bool instrumented = options_.telemetry.enabled;
  if (instrumented) phase_probe_.cycle_start();
  // Trace = cycle id; each outbound hop carries the phase span that caused
  // it, so downstream components stitch into the same per-cycle trace.
  const std::uint32_t track = telemetry_.track();

  // ---- Collect -------------------------------------------------------
  Collected collected = collect(
      request,
      wire::TraceContext{cycle,
                         telemetry::derive_span_id(cycle, track, "collect")},
      phase);
  breakdown.collect = phase.elapsed();
  breakdown.aggregate =
      std::clamp(breakdown.collect - collected.stages_closed, Nanos{0},
                 breakdown.collect);
  if (instrumented) phase_probe_.mark("aggregate");
  phase.restart();

  if (collected.stage_replies == 0 && collected.summaries.empty()) {
    return Status::unavailable("no metrics collected in cycle " +
                               std::to_string(cycle));
  }
  if (options_.local_decisions) {
    if (collected.stage_replies > 0) {
      return Status::failed_precondition(
          "local-decision mode requires all stages behind aggregators");
    }
    return run_lease_phase(cycle, collected, breakdown, phase);
  }

  // ---- Compute -------------------------------------------------------
  core::ComputeResult computed;
  // The store path's result is persistent; only this thread recomputes
  // it, so it is read in place after the lock is released.
  const core::ComputeResult* result = &computed;
  {
    MutexLock lock(mu_);
    if (collected.controllers == 0) {
      result = &core_.compute_from_store(summarizer_.store());
    } else {
      // Any direct stages join as one more summary, so one compute path
      // covers the whole roster.
      if (!summarizer_.store().empty()) {
        collected.summaries.push_back(summarizer_.aggregate_from_store(cycle));
      }
      computed = core_.compute(std::span<const proto::AggregatedMetrics>(
          collected.summaries.data(), collected.summaries.size()));
    }
  }
  breakdown.compute = phase.elapsed();
  if (instrumented) phase_probe_.mark("compute");
  phase.restart();

  // ---- Enforce -------------------------------------------------------
  const Acks acks = enforce(
      cycle, result->rules,
      wire::TraceContext{
          cycle, telemetry::derive_span_id(cycle, track, "disseminate")},
      phase);
  breakdown.disseminate = acks.disseminated;
  breakdown.enforce = phase.elapsed();
  if (instrumented) phase_probe_.mark("enforce");

  const bool degraded = collected.stale > 0 || acks.missing > 0;
  if (degraded) stats_.record_degraded(collected.stale);
  stats_.record(cycle, breakdown, degraded, collected.stale);
  trace_cycle(cycle, breakdown);
  if (degraded && !flight_dumped_) {
    // First degraded cycle: preserve the span ring before it wraps.
    flight_dumped_ = true;
    telemetry_.dump_flight("degraded-cycle");
  }
  return breakdown;
}

void ControllerNode::trace_cycle(std::uint64_t cycle,
                                 const core::PhaseBreakdown& breakdown) {
  const auto id = [&](const char* name) {
    return telemetry::derive_span_id(cycle, telemetry_.track(), name);
  };
  const auto emit = [&](const char* name, Nanos at, Nanos duration,
                        std::uint64_t parent, telemetry::SpanPhase phase) {
    record_span(name, "cycle", cycle, {cycle, parent}, at, duration, phase);
  };
  const Nanos start = clock_->now() - breakdown.total();
  const Nanos enforce_start = start + breakdown.collect + breakdown.compute;
  using telemetry::SpanPhase;
  emit("cycle", start, breakdown.total(), 0, SpanPhase::kNone);
  emit("collect", start, breakdown.collect, id("cycle"), SpanPhase::kCollect);
  emit("aggregate", start + breakdown.collect - breakdown.aggregate,
       breakdown.aggregate, id("collect"), SpanPhase::kAggregate);
  emit("compute", start + breakdown.collect, breakdown.compute, id("cycle"),
       SpanPhase::kCompute);
  emit("disseminate", enforce_start, breakdown.disseminate, id("enforce"),
       SpanPhase::kDisseminate);
  emit("enforce", enforce_start, breakdown.enforce, id("cycle"),
       SpanPhase::kEnforce);
}

void ControllerNode::record_span(const char* name, const char* category,
                                 std::uint64_t cycle, wire::TraceContext cause,
                                 Nanos start, Nanos duration,
                                 telemetry::SpanPhase phase) {
  telemetry::Span span;
  span.name = name;
  span.category = category;
  span.track = telemetry_.track();
  span.cycle = cycle;
  span.start = start;
  span.duration = duration;
  span.trace_id = cause.trace_id;
  span.span_id = telemetry::derive_span_id(cause.trace_id, span.track, name);
  span.parent_span = cause.parent_span;
  span.phase = phase;
  telemetry_.flight().record(span);
  if (telemetry_.tracer() != nullptr) telemetry_.tracer()->record(std::move(span));
}

Result<core::PhaseBreakdown> ControllerNode::run_lease_phase(
    std::uint64_t cycle, const Collected& collected,
    core::PhaseBreakdown breakdown, Stopwatch& phase) {
  // ---- Compute: demand-proportional budget leases --------------------
  const std::vector<proto::AggregatedMetrics>& reports = collected.summaries;
  const auto demand = [](const proto::AggregatedMetrics& report,
                         double proto::JobMetrics::*dim) {
    double sum = 0;
    for (const auto& job : report.jobs) sum += job.*dim;
    return sum;
  };
  double total_data = 0;
  double total_meta = 0;
  for (const auto& report : reports) {
    total_data += demand(report, &proto::JobMetrics::data_iops);
    total_meta += demand(report, &proto::JobMetrics::meta_iops);
  }
  core::Budgets budgets;
  {
    MutexLock lock(mu_);
    budgets = core_.policies().budgets();
  }
  proto::BudgetLease lease;
  lease.cycle_id = cycle;
  lease.valid_until_ns = static_cast<std::uint64_t>(
      (clock_->now() + options_.lease_validity).count());
  const double fallback = reports.empty() ? 1.0 : 1.0 / reports.size();
  // Each controller child that reported gets its share.
  std::vector<std::pair<ConnId, wire::Frame>> leases;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const double data = demand(reports[i], &proto::JobMetrics::data_iops);
    const double meta = demand(reports[i], &proto::JobMetrics::meta_iops);
    lease.data_budget = budgets.data_iops *
                        (total_data > 0 ? data / total_data : fallback);
    lease.meta_budget = budgets.meta_iops *
                        (total_meta > 0 ? meta / total_meta : fallback);
    leases.emplace_back(collected.summary_conns[i], proto::to_frame(lease));
  }
  breakdown.compute = phase.elapsed();
  phase.restart();

  // ---- Enforce: grant leases, await merged acks ------------------------
  if (!leases.empty()) {
    auto gather = dispatcher_.start_gather(proto::MessageType::kEnforceAck,
                                           cycle, collected.summary_conns);
    (void)endpoint_->send_all(leases);
    if (!gather->wait_for(options_.phase_timeout).is_ok()) {
      SDS_LOG(WARN) << address_ << ": lease enforcement incomplete in cycle "
                    << cycle;
    }
    dispatcher_.finish(gather);
  }
  breakdown.enforce = phase.elapsed();
  stats_.record(cycle, breakdown, false, 0);
  trace_cycle(cycle, breakdown);
  return breakdown;
}

std::optional<wire::TraceContext> ControllerNode::child_context(
    const std::optional<wire::TraceContext>& ctx, const char* name) const {
  if (!ctx.has_value()) return std::nullopt;
  return wire::TraceContext{
      ctx->trace_id,
      telemetry::derive_span_id(ctx->trace_id, telemetry_.track(), name)};
}

void ControllerNode::serve(const wire::Frame& frame) {
  switch (static_cast<proto::MessageType>(frame.type)) {
    case proto::MessageType::kCollectRequest:
      if (const auto request = proto::from_frame<proto::CollectRequest>(frame);
          request.is_ok()) {
        serve_collect(*request, frame.trace);
      }
      break;
    case proto::MessageType::kEnforceBatch:
      if (const auto batch = proto::from_frame<proto::EnforceBatch>(frame);
          batch.is_ok()) {
        serve_rules(batch->cycle_id, batch->rules, frame.trace);
      }
      break;
    case proto::MessageType::kBudgetLease: {
      const auto lease = proto::from_frame<proto::BudgetLease>(frame);
      if (!lease.is_ok()) return;
      std::vector<proto::Rule> rules;
      {
        MutexLock lock(mu_);
        // A node with controller children decides nothing locally, as the
        // simulator refuses local decisions on 3-level trees.
        if (controllers_.empty()) {
          summarizer_.set_lease(*lease);
          rules = summarizer_.local_compute(
              lease->cycle_id, stored_reports(summarizer_.store()),
              static_cast<std::uint64_t>(clock_->now().count()));
        }
      }
      serve_rules(lease->cycle_id, rules, frame.trace);
      break;
    }
    default:
      break;
  }
}

void ControllerNode::serve_collect(
    const proto::CollectRequest& request,
    const std::optional<wire::TraceContext>& ctx) {
  const Nanos begin = clock_->now();
  const std::uint64_t cycle = request.cycle_id;
  ++cycles_served_;
  if (cycles_counter_ != nullptr) cycles_counter_->add();

  // Downstream hops hang off OUR span, so the children's spans nest under
  // this node in the stitched trace.
  const auto down = child_context(ctx, "agg.collect");
  Stopwatch phase(*clock_);
  Collected collected = collect(request, down, phase);
  proto::AggregatedMetrics merged;
  // The store's summary persists, refreshed only here: encoded unlocked.
  const proto::AggregatedMetrics* summary = &merged;
  ConnId upstream;
  {
    MutexLock lock(mu_);
    if (collected.summaries.empty()) {
      summary = &summarizer_.aggregate_from_store(cycle);
    } else {
      if (!summarizer_.store().empty()) {
        collected.summaries.push_back(summarizer_.aggregate_from_store(cycle));
      }
      merged = core::merge_summaries(cycle, options_.id, collected.summaries);
    }
    upstream = upstream_;
  }
  if (ctx.has_value()) {
    record_span("agg.collect", "component", cycle, *ctx, begin,
                clock_->now() - begin, telemetry::SpanPhase::kCollect);
  }
  if (upstream.valid()) {
    (void)endpoint_->send(upstream, proto::to_frame(*summary, down));
  }
}

void ControllerNode::serve_rules(std::uint64_t cycle,
                                 std::span<const proto::Rule> rules,
                                 const std::optional<wire::TraceContext>& ctx) {
  const Nanos begin = clock_->now();
  const auto down = child_context(ctx, "agg.enforce");
  Stopwatch phase(*clock_);
  const Acks acks = enforce(cycle, rules, down, phase);
  std::vector<proto::EnforceAck> decoded;
  decoded.reserve(acks.replies.size());
  for (const auto& reply : acks.replies) {
    auto ack = proto::from_frame<proto::EnforceAck>(reply.frame);
    if (ack.is_ok()) decoded.push_back(std::move(ack).value());
  }
  proto::EnforceAck merged;
  ConnId upstream;
  {
    MutexLock lock(mu_);
    merged = summarizer_.merge_acks(cycle, decoded);
    upstream = upstream_;
  }
  if (ctx.has_value()) {
    record_span("agg.enforce", "component", cycle, *ctx, begin,
                clock_->now() - begin, telemetry::SpanPhase::kEnforce);
  }
  if (upstream.valid()) {
    (void)endpoint_->send(upstream, proto::to_frame(merged, down));
  }
}

void ControllerNode::sync_store(bool computes) {
  if (!store_roster_changed_ && computes == store_computes_) return;
  store_roster_changed_ = false;
  // Both consumers cache per-slot state by structure epoch, so after a
  // role flip the next one rebuilds from every slot.
  store_computes_ = computes;
  core::MetricsStore& store = summarizer_.store();
  // Carry surviving slots' last reports across the rebuild: the reported
  // column is the bit-exact delta base, so re-seeding it keeps every
  // unaffected stage's delta chain anchored through roster churn. A slot
  // never reported carries the values it is bound with.
  const std::vector<proto::StageMetrics> carried = stored_reports(store);
  std::size_t direct = 0;  // a hierarchical root reserves no slots
  core_.registry().for_each(
      [&](const core::StageRecord& record) { direct += !record.via.valid(); });
  store.reset(direct);
  core_.registry().for_each([&](const core::StageRecord& record) {
    if (!record.via.valid()) {
      (void)store.bind(record.info.stage_id, record.info.job_id);
    }
  });
  for (const auto& m : carried) {
    (void)store.update(m);  // drops stages that left the roster
  }
}

std::uint32_t ControllerNode::store_hint(ConnId conn) const {
  const auto it = stages_by_conn_.find(conn);
  if (it == stages_by_conn_.end() || it->second.empty()) {
    return core::MetricsStore::kInvalidIndex;
  }
  // Upserts append duplicates, so "one stage per connection" means all
  // entries name the same stage; several distinct stages are ambiguous.
  const StageId stage = it->second.front();
  for (const StageId s : it->second) {
    if (s != stage) return core::MetricsStore::kInvalidIndex;
  }
  return summarizer_.store().index_of(stage);
}

Result<std::vector<ControllerNode::DeadPeer>> ControllerNode::probe_liveness(
    Nanos timeout) {
  const std::uint64_t seq = ++heartbeat_seq_;
  std::vector<DeadPeer> peers;
  {
    MutexLock lock(mu_);
    for (const ControllerChild& child : controllers_) {
      peers.push_back({child.conn, child.id});
    }
    core_.registry().for_each([&](const core::StageRecord& record) {
      if (!record.via.valid()) peers.push_back({record.conn});
    });
  }
  if (peers.empty()) return peers;
  std::vector<ConnId> conns(peers.size());
  std::ranges::transform(peers, conns.begin(), &DeadPeer::conn);

  // HeartbeatAck's body starts with the varint seq, so the gather can
  // correlate on it like a cycle id.
  auto gather = dispatcher_.start_gather(proto::MessageType::kHeartbeatAck,
                                         seq, conns);
  proto::Heartbeat heartbeat;
  heartbeat.from = options_.id;  // invalid at the root
  heartbeat.seq = seq;
  rpc::broadcast(*endpoint_, conns, heartbeat);
  (void)gather->wait_for(timeout);
  const auto replied = gather->reply_bitmap();
  dispatcher_.finish(gather);

  std::vector<DeadPeer> dead;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (!replied[i]) dead.push_back(peers[i]);
  }
  return dead;
}

void ControllerNode::evict(const DeadPeer& peer) {
  on_conn_closed(peer.conn);  // roster cleanup, as if the conn dropped
  endpoint_->close(peer.conn);
}

Status ControllerNode::run_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto cycle = run_cycle();
    if (!cycle.is_ok()) return cycle.status();
  }
  return Status::ok();
}

void ControllerNode::set_job_weight(JobId job, double weight) {
  MutexLock lock(mu_);
  core_.policies().set_weight(job, weight);
}

void ControllerNode::set_budgets(core::Budgets budgets) {
  MutexLock lock(mu_);
  core_.policies().set_budgets(budgets);
}

std::size_t ControllerNode::registered_stages() const {
  MutexLock lock(mu_);
  return core_.registry().size();
}

std::size_t ControllerNode::known_aggregators() const {
  MutexLock lock(mu_);
  return controllers_.size();
}

std::uint32_t ControllerNode::epoch() const {
  MutexLock lock(mu_);
  return core_.epoch();
}

void ControllerNode::advance_epoch() {
  MutexLock lock(mu_);
  core_.advance_epoch();
}

void ControllerNode::shutdown() {
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
