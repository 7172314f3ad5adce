#include "runtime/global_server.h"

#include <algorithm>
#include <unordered_set>

#include "common/log.h"
#include "core/aggregator.h"
#include "fault/plan.h"
#include "rpc/broadcast.h"

namespace sds::runtime {

GlobalControllerServer::GlobalControllerServer(
    transport::Network& network, std::string address,
    GlobalServerOptions options,
    std::unique_ptr<policy::ControlAlgorithm> algorithm, const Clock& clock)
    : network_(&network),
      address_(std::move(address)),
      options_(options),
      clock_(&clock),
      core_(options.core, std::move(algorithm)) {}

GlobalControllerServer::~GlobalControllerServer() { shutdown(); }

Status GlobalControllerServer::start(
    const transport::EndpointOptions& endpoint_options) {
  MutexLock lock(mu_);
  if (started_) return Status::failed_precondition("already started");
  auto endpoint = network_->bind(address_, endpoint_options);
  if (!endpoint.is_ok()) return endpoint.status();
  endpoint_ = std::move(endpoint).value();
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
    if (options_.telemetry.component == "sds") {
      options_.telemetry.component = "global";
    }
    telemetry_.init(options_.telemetry, endpoint_.get(), dispatcher_,
                    [this] { return core::recent_cycles_json(stats_); });
    stats_.bind(telemetry_.registry(),
                {{"component", options_.telemetry.component}});
    phase_probe_.bind(*telemetry_.registry(),
                      {{"component", options_.telemetry.component}});
    if (telemetry_.tracer() != nullptr) {
      telemetry_.tracer()->set_track_name(telemetry_.track(),
                                          "global controller");
    }
  }
  started_ = true;
  return Status::ok();
}

void GlobalControllerServer::on_frame(ConnId conn, const wire::Frame& frame) {
  using proto::MessageType;
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRegisterRequest: {
      const auto request = proto::from_frame<proto::RegisterRequest>(frame);
      if (!request.is_ok()) return;
      proto::RegisterAck ack;
      {
        MutexLock lock(mu_);
        ControllerId via = ControllerId::invalid();
        if (const auto it = aggregators_by_conn_.find(conn);
            it != aggregators_by_conn_.end()) {
          via = it->second;
        }
        // Registration is an upsert: after a failover, a stage's new
        // registration (via its new route) may arrive before the old
        // route's teardown — the latest registration wins.
        Status added = core_.registry().add({request->info, conn, via});
        if (added.code() == StatusCode::kAlreadyExists) {
          (void)core_.registry().remove(request->info.stage_id);
          added = core_.registry().add({request->info, conn, via});
          SDS_LOG(INFO) << "global: stage " << request->info.stage_id
                        << " re-registered";
        }
        ack.accepted = added.is_ok();
        ack.epoch = core_.epoch();
        if (added.is_ok()) {
          stages_by_conn_[conn].push_back(request->info.stage_id);
          store_roster_changed_ = true;
        } else {
          SDS_LOG(WARN) << "registration rejected: " << added.to_string();
        }
      }
      (void)endpoint_->send(conn, proto::to_frame(ack));
      break;
    }
    case MessageType::kHeartbeat: {
      const auto hb = proto::from_frame<proto::Heartbeat>(frame);
      if (!hb.is_ok()) return;
      {
        MutexLock lock(mu_);
        aggregators_by_conn_[conn] = hb->from;
      }
      proto::HeartbeatAck ack;
      ack.seq = hb->seq;
      (void)endpoint_->send(conn, proto::to_frame(ack));
      break;
    }
    default:
      SDS_LOG(DEBUG) << "global: unrouted frame type " << frame.type;
  }
}

void GlobalControllerServer::on_conn_closed(ConnId conn) {
  MutexLock lock(mu_);
  if (const auto it = aggregators_by_conn_.find(conn);
      it != aggregators_by_conn_.end()) {
    const ControllerId id = it->second;
    aggregators_by_conn_.erase(it);
    const auto evicted = core_.registry().evict_via(id);
    SDS_LOG(WARN) << "global: aggregator " << id << " lost, evicted "
                  << evicted.size() << " stages (they will re-register)";
    store_roster_changed_ = true;
  }
  if (const auto it = stages_by_conn_.find(conn); it != stages_by_conn_.end()) {
    for (const StageId stage : it->second) {
      // Skip stages that already re-registered over a different route.
      const core::StageRecord* record = core_.registry().find(stage);
      if (record != nullptr && record->conn == conn) {
        (void)core_.registry().remove(stage);
      }
    }
    stages_by_conn_.erase(it);
    store_roster_changed_ = true;
  }
}

void GlobalControllerServer::sync_store() {
  if (!store_roster_changed_) return;
  store_roster_changed_ = false;
  // Carry surviving slots' last reports across the rebuild: the reported
  // column is the bit-exact delta base, so re-seeding it keeps every
  // unaffected stage's delta chain anchored through roster churn.
  std::vector<proto::StageMetrics> carried;
  carried.reserve(store_.size());
  const auto last_cycles = store_.last_cycle();
  for (std::uint32_t i = 0; i < store_.size(); ++i) {
    if (last_cycles[i] > 0) carried.push_back(store_.reported(i));
  }
  store_.reset(core_.registry().size());
  core_.registry().for_each([&](const core::StageRecord& record) {
    if (!record.via.valid()) {
      (void)store_.bind(record.info.stage_id, record.info.job_id);
    }
  });
  for (const auto& m : carried) {
    (void)store_.update(m);  // drops stages that left the roster
  }
}

std::uint32_t GlobalControllerServer::store_hint(ConnId conn) const {
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
  return store_.index_of(stage);
}

GlobalControllerServer::CycleTargets
GlobalControllerServer::snapshot_targets() const {
  CycleTargets targets;
  MutexLock lock(mu_);
  targets.aggregators.reserve(aggregators_by_conn_.size());
  for (const auto& [conn, id] : aggregators_by_conn_) {
    targets.aggregators.emplace_back(conn, id);
  }
  // Deterministic order for tests.
  std::sort(targets.aggregators.begin(), targets.aggregators.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  core_.registry().for_each([&](const core::StageRecord& record) {
    if (!record.via.valid()) targets.stage_conns.push_back(record.conn);
  });
  return targets;
}

Result<core::PhaseBreakdown> GlobalControllerServer::run_cycle() {
  const CycleTargets targets = snapshot_targets();
  if (targets.stage_conns.empty() && targets.aggregators.empty()) {
    return Status::failed_precondition("no stages or aggregators registered");
  }

  proto::CollectRequest request;
  std::uint64_t cycle = 0;
  {
    MutexLock lock(mu_);
    request = core_.begin_cycle();
    cycle = core_.current_cycle();
  }

  core::PhaseBreakdown breakdown;
  Stopwatch phase(*clock_);
  const bool instrumented = options_.telemetry.enabled;
  if (instrumented) phase_probe_.cycle_start();
  // Causal identity of this cycle's wave: trace = cycle id, and each
  // outbound hop carries the phase span it was caused by, so downstream
  // components stitch their spans into the same per-cycle trace.
  const std::uint64_t trace_id = cycle;
  const std::uint32_t track = telemetry_.track();

  // Store-backed compute applies on purely flat cycles: every reply is a
  // per-stage frame (full or delta) folded straight into the columnar
  // store, and the incremental PSFA runs over it. Decisions are
  // bit-identical to the batch pipeline; a roster change (registration,
  // eviction) rebuilds the store bindings before the next compute.
  // Hierarchical/mixed cycles keep the batch pipeline (aggregated
  // summaries never flow through the store).
  const bool store_cycle =
      targets.aggregators.empty() && !options_.local_decisions;

  // ---- Collect -------------------------------------------------------
  auto stage_gather = dispatcher_.start_gather(
      proto::MessageType::kStageMetrics, cycle, targets.stage_conns,
      store_cycle ? std::optional(proto::MessageType::kStageMetricsDelta)
                  : std::nullopt);
  std::vector<ConnId> agg_conns;
  agg_conns.reserve(targets.aggregators.size());
  for (const auto& [conn, _] : targets.aggregators) agg_conns.push_back(conn);
  auto agg_gather = dispatcher_.start_gather(
      proto::MessageType::kAggregatedMetrics, cycle, agg_conns);

  // One encode for the whole wave: stages and aggregators queue the same
  // ref-counted wire image (trace trailer included).
  const wire::SharedFrame collect_frame = proto::to_shared_frame(
      request, wire::TraceContext{
                   trace_id, telemetry::derive_span_id(trace_id, track,
                                                       "collect")});
  endpoint_->send_shared_all(targets.stage_conns, collect_frame);
  endpoint_->send_shared_all(agg_conns, collect_frame);
  const Status stage_wait = stage_gather->wait_for(
      options_.phase_timeout,
      fault::quorum_count(options_.collect_quorum, targets.stage_conns.size()));
  // Everything after the direct-stage gather closes is aggregation tail:
  // waiting on aggregator subtree reports and decoding them.
  const Nanos stage_gather_done = phase.elapsed();
  if (instrumented) phase_probe_.mark("collect");
  const Status agg_wait = agg_gather->wait_for(
      options_.phase_timeout,
      fault::quorum_count(options_.collect_quorum, agg_conns.size()));
  if (!stage_wait.is_ok() || !agg_wait.is_ok()) {
    SDS_LOG(WARN) << "global: collect incomplete in cycle " << cycle;
  }

  // Degraded-cycle accounting: every silent direct stage is stale; a
  // silent aggregator makes its whole registered subtree stale.
  std::size_t stale = stage_gather->missing();
  if (agg_gather->missing() > 0) {
    const auto bitmap = agg_gather->reply_bitmap();
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < targets.aggregators.size(); ++i) {
      if (bitmap[i]) continue;
      const ControllerId id = targets.aggregators[i].second;
      core_.registry().for_each([&](const core::StageRecord& record) {
        if (record.via == id) ++stale;
      });
    }
  }
  // Recovery accounting: a fresh collect reply from a peer we had marked
  // missing closes its outage window.
  const Nanos collect_now = clock_->now();
  const auto note_collect_outcomes = [&](const rpc::Gather& gather) {
    const auto& expected = gather.expected();
    const auto bitmap = gather.reply_bitmap();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (bitmap[i]) {
        if (const auto it = missing_since_.find(expected[i]);
            it != missing_since_.end()) {
          stats_.record_recovery(collect_now - it->second);
          missing_since_.erase(it);
        }
      } else {
        missing_since_.emplace(expected[i], collect_now);
      }
    }
  };
  note_collect_outcomes(*stage_gather);
  note_collect_outcomes(*agg_gather);

  std::vector<rpc::Gather::Reply> stage_replies = stage_gather->take_replies();
  std::vector<proto::StageMetrics> stage_metrics;
  if (!store_cycle) {
    stage_metrics.reserve(stage_replies.size());
    for (const auto& reply : stage_replies) {
      auto metrics = proto::from_frame<proto::StageMetrics>(reply.frame);
      if (metrics.is_ok()) stage_metrics.push_back(std::move(metrics).value());
    }
  }
  std::vector<proto::AggregatedMetrics> aggregated;
  for (auto& reply : agg_gather->take_replies()) {
    auto metrics = proto::from_frame<proto::AggregatedMetrics>(reply.frame);
    if (metrics.is_ok()) aggregated.push_back(std::move(metrics).value());
  }
  dispatcher_.finish(stage_gather);
  dispatcher_.finish(agg_gather);
  breakdown.collect = phase.elapsed();
  breakdown.aggregate = std::clamp(breakdown.collect - stage_gather_done,
                                   Nanos{0}, breakdown.collect);
  if (instrumented) phase_probe_.mark("aggregate");
  phase.restart();

  if ((store_cycle ? stage_replies.empty() : stage_metrics.empty()) &&
      aggregated.empty()) {
    return Status::unavailable("no metrics collected in cycle " +
                               std::to_string(cycle));
  }

  if (options_.local_decisions) {
    if (!stage_metrics.empty()) {
      return Status::failed_precondition(
          "local-decision mode requires all stages behind aggregators");
    }
    return run_lease_phase(cycle, aggregated, targets, breakdown, phase);
  }

  // ---- Compute -------------------------------------------------------
  core::ComputeResult result;
  std::size_t delta_rejected = 0;
  {
    MutexLock lock(mu_);
    if (store_cycle) {
      sync_store();
      for (const auto& reply : stage_replies) {
        if (reply.frame.type ==
            static_cast<std::uint16_t>(
                proto::MessageType::kStageMetricsDelta)) {
          const auto delta =
              proto::from_frame<proto::StageMetricsDelta>(reply.frame);
          // A rejected delta (unknown slot, duplicate, broken base chain)
          // leaves the slot's previous report in force; the stage counts
          // stale this cycle and its host's periodic full refresh
          // re-anchors the chain.
          if (!delta.is_ok() ||
              store_.apply_delta(*delta, store_hint(reply.conn)) !=
                  core::DeltaStatus::kApplied) {
            ++delta_rejected;
          }
        } else {
          const auto metrics =
              proto::from_frame<proto::StageMetrics>(reply.frame);
          if (metrics.is_ok()) (void)store_.update(*metrics);
        }
      }
      result = core_.compute_from_store(store_);
    } else if (aggregated.empty()) {
      result = core_.compute(std::span<const proto::StageMetrics>(
          stage_metrics.data(), stage_metrics.size()));
    } else {
      // Mixed/hierarchical: fold any direct stage metrics into a synthetic
      // summary so one compute path covers the whole roster.
      if (!stage_metrics.empty()) {
        core::AggregatorCore folder(
            core::AggregatorOptions{ControllerId::invalid(), true});
        aggregated.push_back(folder.aggregate(cycle, stage_metrics));
      }
      result = core_.compute(std::span<const proto::AggregatedMetrics>(
          aggregated.data(), aggregated.size()));
    }
  }
  // Deltas dropped by the store never updated their stage's metrics this
  // cycle — degraded-cycle accounting treats them like silent stages.
  stale += delta_rejected;
  breakdown.compute = phase.elapsed();
  if (instrumented) phase_probe_.mark("compute");
  phase.restart();

  // ---- Enforce -------------------------------------------------------
  std::unordered_map<ControllerId, proto::EnforceBatch> batches;
  {
    MutexLock lock(mu_);
    batches = core_.group_rules(result);
  }

  // Build every delivery first so the ack gather can be registered
  // BEFORE the first send — otherwise a fast ack could arrive before the
  // gather exists and be dropped.
  const wire::TraceContext enforce_ctx{
      trace_id, telemetry::derive_span_id(trace_id, track, "disseminate")};
  std::vector<std::pair<ConnId, wire::Frame>> deliveries;
  deliveries.reserve(targets.stage_conns.size() + targets.aggregators.size());
  if (const auto it = batches.find(ControllerId::invalid());
      it != batches.end()) {
    // Direct stages: one batch per stage connection, its rules in result
    // order. Sorting (connection, rule index) pairs groups them, and each
    // group is encoded from one reused batch, so grouping keeps no
    // per-connection state.
    const std::vector<proto::Rule>& rules = it->second.rules;
    std::vector<std::pair<ConnId, std::size_t>> routed;
    routed.reserve(rules.size());
    {
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < rules.size(); ++i) {
        const core::StageRecord* record =
            core_.registry().find(rules[i].stage_id);
        if (record != nullptr) routed.emplace_back(record->conn, i);
      }
    }
    std::sort(routed.begin(), routed.end());
    proto::EnforceBatch batch;
    batch.cycle_id = cycle;
    for (std::size_t i = 0; i < routed.size();) {
      const ConnId conn = routed[i].first;
      batch.rules.clear();
      for (; i < routed.size() && routed[i].first == conn; ++i) {
        batch.rules.push_back(rules[routed[i].second]);
      }
      deliveries.emplace_back(conn, proto::to_frame(batch, enforce_ctx));
    }
  }
  // Aggregators: the whole subtree batch on the aggregator connection.
  const proto::EnforceBatch no_rules{cycle, {}};
  for (const auto& [conn, id] : targets.aggregators) {
    const auto it = batches.find(id);
    deliveries.emplace_back(
        conn, proto::to_frame(it != batches.end() ? it->second : no_rules,
                              enforce_ctx));
  }

  std::size_t enforce_missing = 0;
  if (!deliveries.empty()) {
    std::vector<ConnId> ack_conns;
    ack_conns.reserve(deliveries.size());
    for (const auto& [conn, _] : deliveries) ack_conns.push_back(conn);
    auto ack_gather = dispatcher_.start_gather(proto::MessageType::kEnforceAck,
                                               cycle, ack_conns);
    (void)endpoint_->send_all(deliveries);
    // Dissemination head of the enforce phase: rule batches encoded and
    // queued; the rest of the phase is the ack wait.
    breakdown.disseminate = phase.elapsed();
    if (instrumented) phase_probe_.mark("disseminate");
    const Status ack_wait = ack_gather->wait_for(
        options_.phase_timeout,
        fault::quorum_count(options_.collect_quorum, ack_conns.size()));
    if (!ack_wait.is_ok()) {
      SDS_LOG(WARN) << "global: enforce incomplete in cycle " << cycle;
    }
    enforce_missing = ack_gather->missing();
    dispatcher_.finish(ack_gather);
  }
  breakdown.enforce = phase.elapsed();
  if (instrumented) phase_probe_.mark("enforce");

  const bool degraded = stale > 0 || enforce_missing > 0;
  if (degraded) stats_.record_degraded(stale);
  stats_.record(cycle, breakdown, degraded, stale);
  trace_cycle(cycle, breakdown);
  if (degraded && !flight_dumped_) {
    // First degraded cycle: preserve the span ring before it wraps.
    flight_dumped_ = true;
    telemetry_.dump_flight("degraded-cycle");
  }
  return breakdown;
}

void GlobalControllerServer::trace_cycle(std::uint64_t cycle,
                                         const core::PhaseBreakdown& breakdown) {
  telemetry::SpanTracer* tracer = telemetry_.tracer();
  telemetry::FlightRecorder& flight = telemetry_.flight();
  const std::uint32_t track = telemetry_.track();
  const Nanos start = clock_->now() - breakdown.total();
  const std::uint64_t root_id = telemetry::derive_span_id(cycle, track, "cycle");
  const std::uint64_t collect_id =
      telemetry::derive_span_id(cycle, track, "collect");
  const std::uint64_t enforce_id =
      telemetry::derive_span_id(cycle, track, "enforce");
  const auto make = [&](const char* name, Nanos at, Nanos duration,
                        std::uint64_t parent, telemetry::SpanPhase phase) {
    telemetry::Span span;
    span.name = name;
    span.category = "cycle";
    span.track = track;
    span.cycle = cycle;
    span.start = at;
    span.duration = duration;
    span.trace_id = cycle;
    span.span_id = telemetry::derive_span_id(cycle, track, name);
    span.parent_span = parent;
    span.phase = phase;
    return span;
  };
  const auto emit = [&](telemetry::Span span) {
    flight.record(span);
    if (tracer != nullptr) tracer->record(std::move(span));
  };
  using telemetry::SpanPhase;
  emit(make("cycle", start, breakdown.total(), 0, SpanPhase::kNone));
  emit(make("collect", start, breakdown.collect, root_id, SpanPhase::kCollect));
  emit(make("aggregate", start + breakdown.collect - breakdown.aggregate,
            breakdown.aggregate, collect_id, SpanPhase::kAggregate));
  emit(make("compute", start + breakdown.collect, breakdown.compute, root_id,
            SpanPhase::kCompute));
  emit(make("disseminate", start + breakdown.collect + breakdown.compute,
            breakdown.disseminate, enforce_id, SpanPhase::kDisseminate));
  emit(make("enforce", start + breakdown.collect + breakdown.compute,
            breakdown.enforce, root_id, SpanPhase::kEnforce));
}

Result<core::PhaseBreakdown> GlobalControllerServer::run_lease_phase(
    std::uint64_t cycle,
    const std::vector<proto::AggregatedMetrics>& aggregated,
    const CycleTargets& targets, core::PhaseBreakdown breakdown,
    Stopwatch& phase) {
  // ---- Compute: demand-proportional budget leases --------------------
  double total_data = 0;
  double total_meta = 0;
  for (const auto& report : aggregated) {
    for (const auto& job : report.jobs) {
      total_data += job.data_iops;
      total_meta += job.meta_iops;
    }
  }
  core::Budgets budgets;
  {
    MutexLock lock(mu_);
    budgets = core_.policies().budgets();
  }
  const std::uint64_t valid_until = static_cast<std::uint64_t>(
      (clock_->now() + options_.lease_validity).count());

  std::unordered_map<ControllerId, proto::BudgetLease> leases;
  const double fallback = aggregated.empty() ? 1.0 : 1.0 / aggregated.size();
  for (const auto& report : aggregated) {
    double agg_data = 0;
    double agg_meta = 0;
    for (const auto& job : report.jobs) {
      agg_data += job.data_iops;
      agg_meta += job.meta_iops;
    }
    proto::BudgetLease lease;
    lease.cycle_id = cycle;
    lease.data_budget = budgets.data_iops *
                        (total_data > 0 ? agg_data / total_data : fallback);
    lease.meta_budget = budgets.meta_iops *
                        (total_meta > 0 ? agg_meta / total_meta : fallback);
    lease.valid_until_ns = valid_until;
    leases[report.from] = lease;
  }
  breakdown.compute = phase.elapsed();
  phase.restart();

  // ---- Enforce: grant leases, await merged acks ------------------------
  std::vector<ConnId> ack_conns;
  std::vector<std::pair<ConnId, proto::BudgetLease>> deliveries;
  for (const auto& [conn, id] : targets.aggregators) {
    const auto it = leases.find(id);
    if (it == leases.end()) continue;  // no report this cycle: skip
    ack_conns.push_back(conn);
    deliveries.emplace_back(conn, it->second);
  }
  if (!deliveries.empty()) {
    auto gather = dispatcher_.start_gather(proto::MessageType::kEnforceAck,
                                           cycle, ack_conns);
    for (const auto& [conn, lease] : deliveries) {
      (void)endpoint_->send(conn, proto::to_frame(lease));
    }
    const Status wait = gather->wait_for(options_.phase_timeout);
    if (!wait.is_ok()) {
      SDS_LOG(WARN) << "global: lease enforcement incomplete in cycle "
                    << cycle;
    }
    dispatcher_.finish(gather);
  }
  breakdown.enforce = phase.elapsed();
  stats_.record(cycle, breakdown, false, 0);
  trace_cycle(cycle, breakdown);
  return breakdown;
}

Result<std::vector<GlobalControllerServer::DeadPeer>>
GlobalControllerServer::probe_liveness(Nanos timeout) {
  const CycleTargets targets = snapshot_targets();
  std::uint64_t seq = 0;
  {
    MutexLock lock(mu_);
    seq = ++heartbeat_seq_;
  }

  std::vector<ConnId> probe_conns = targets.stage_conns;
  for (const auto& [conn, _] : targets.aggregators) probe_conns.push_back(conn);
  if (probe_conns.empty()) return std::vector<DeadPeer>{};

  // HeartbeatAck's body starts with the varint seq, so the gather can
  // correlate on it like a cycle id.
  auto gather = dispatcher_.start_gather(proto::MessageType::kHeartbeatAck,
                                         seq, probe_conns);
  proto::Heartbeat heartbeat;
  heartbeat.from = ControllerId::invalid();  // "the global controller"
  heartbeat.seq = seq;
  rpc::broadcast(*endpoint_, probe_conns, heartbeat);

  (void)gather->wait_for(timeout);
  std::unordered_set<ConnId> answered;
  for (const auto& reply : gather->take_replies()) answered.insert(reply.conn);
  dispatcher_.finish(gather);

  std::vector<DeadPeer> dead;
  for (const auto& [conn, id] : targets.aggregators) {
    if (!answered.contains(conn)) dead.push_back({conn, id});
  }
  for (const ConnId conn : targets.stage_conns) {
    if (!answered.contains(conn)) dead.push_back({conn, ControllerId::invalid()});
  }
  return dead;
}

void GlobalControllerServer::evict(const DeadPeer& peer) {
  on_conn_closed(peer.conn);  // registry cleanup, as if the conn dropped
  endpoint_->close(peer.conn);
}

Status GlobalControllerServer::run_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto cycle = run_cycle();
    if (!cycle.is_ok()) return cycle.status();
  }
  return Status::ok();
}

void GlobalControllerServer::set_job_weight(JobId job, double weight) {
  MutexLock lock(mu_);
  core_.policies().set_weight(job, weight);
}

void GlobalControllerServer::set_budgets(core::Budgets budgets) {
  MutexLock lock(mu_);
  core_.policies().set_budgets(budgets);
}

std::size_t GlobalControllerServer::registered_stages() const {
  MutexLock lock(mu_);
  return core_.registry().size();
}

std::size_t GlobalControllerServer::known_aggregators() const {
  MutexLock lock(mu_);
  return aggregators_by_conn_.size();
}

std::uint32_t GlobalControllerServer::epoch() const {
  MutexLock lock(mu_);
  return core_.epoch();
}

void GlobalControllerServer::advance_epoch() {
  MutexLock lock(mu_);
  core_.advance_epoch();
}

void GlobalControllerServer::shutdown() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  telemetry_.stop();
  endpoint_->shutdown();
}

}  // namespace sds::runtime
