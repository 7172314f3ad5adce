// AggregatorServer — live middle-tier controller of the hierarchical
// design. Binds an endpoint for its stages, dials the global controller
// upstream, introduces itself with a Heartbeat carrying its ControllerId,
// and then serves the global controller's control cycles:
//
//   CollectRequest (from global)  → scatter to stages → gather
//     StageMetrics → pre-aggregate (Cheferd-style) → AggregatedMetrics up
//   EnforceBatch (from global)    → route one single-rule batch per stage
//     → gather EnforceAcks → merged EnforceAck up
//
// Stage registrations are accepted locally (immediate ack to the stage)
// and forwarded upstream so the global controller learns the roster.
// Cycle work runs on a dedicated worker thread: the endpoint's delivery
// thread must stay free to route gather replies.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/queue.h"
#include "common/status.h"
#include "core/aggregator.h"
#include "rpc/gather.h"
#include "runtime/server_telemetry.h"
#include "transport/transport.h"

namespace sds::runtime {

struct AggregatorServerOptions {
  ControllerId id;
  std::string upstream_address;
  Nanos phase_timeout = seconds(5);
  /// Observability: transport + gather instruments and the cycles-served
  /// counter register into one MetricsRegistry (shared when
  /// `telemetry.registry` is set); exported when `out_dir` is configured.
  telemetry::TelemetryOptions telemetry = {};
};

class AggregatorServer {
 public:
  AggregatorServer(transport::Network& network, std::string address,
                   AggregatorServerOptions options,
                   const Clock& clock = SystemClock::instance());
  ~AggregatorServer();

  AggregatorServer(const AggregatorServer&) = delete;
  AggregatorServer& operator=(const AggregatorServer&) = delete;

  /// Bind, dial upstream, introduce this aggregator to the global
  /// controller.
  Status start(const transport::EndpointOptions& endpoint_options = {});

  [[nodiscard]] std::size_t registered_stages() const;
  /// Bound address (resolved — actual port when bound to port 0).
  [[nodiscard]] const std::string& address() const {
    return endpoint_ ? endpoint_->address() : address_;
  }
  [[nodiscard]] ControllerId id() const { return options_.id; }
  [[nodiscard]] transport::Endpoint* endpoint() { return endpoint_.get(); }

  /// Control cycles relayed downward so far (introspection).
  [[nodiscard]] std::uint64_t cycles_served() const;

  /// Telemetry registry (null unless options.telemetry.enabled).
  [[nodiscard]] telemetry::MetricsRegistry* metrics() {
    return telemetry_.registry();
  }
  /// Always-on span ring (aggregator hop spans land here).
  [[nodiscard]] telemetry::FlightRecorder& flight() {
    return telemetry_.flight();
  }

  void shutdown();

 private:
  void on_frame(ConnId conn, wire::Frame frame);
  void on_conn_closed(ConnId conn);
  void serve_collect(proto::CollectRequest request,
                     std::optional<wire::TraceContext> ctx);
  void serve_enforce(proto::EnforceBatch batch,
                     std::optional<wire::TraceContext> ctx);
  /// Local-decision mode (paper §VI): run PSFA over the subtree within
  /// the leased budgets and enforce the result.
  void serve_lease(proto::BudgetLease lease,
                   std::optional<wire::TraceContext> ctx);
  /// Push one single-rule batch per owned stage; gather acks; send the
  /// merged ack upstream.
  void enforce_rules(std::uint64_t cycle_id,
                     const std::vector<proto::Rule>& rules,
                     const std::optional<wire::TraceContext>& ctx);
  /// Derive this hop's own context (our span as the parent of downstream
  /// work); nullopt when the inbound frame carried no trace.
  [[nodiscard]] std::optional<wire::TraceContext> child_context(
      const std::optional<wire::TraceContext>& ctx, const char* name) const;
  /// Record the hop span for a traced serve (flight ring + tracer).
  void record_hop(const std::optional<wire::TraceContext>& ctx,
                  const char* name, std::uint64_t cycle, Nanos begin,
                  telemetry::SpanPhase phase);

  transport::Network* network_;
  const std::string address_;
  AggregatorServerOptions options_;
  const Clock* clock_;

  std::unique_ptr<transport::Endpoint> endpoint_;
  rpc::Dispatcher dispatcher_;
  ServerTelemetry telemetry_;
  telemetry::Counter* cycles_counter_ = nullptr;

  mutable Mutex mu_{LockRank::kRuntimeServer};
  core::AggregatorCore core_ SDS_GUARDED_BY(mu_);
  std::unordered_map<ConnId, std::vector<StageId>> stages_by_conn_
      SDS_GUARDED_BY(mu_);
  ConnId upstream_ SDS_GUARDED_BY(mu_) = ConnId::invalid();
  std::uint64_t cycles_served_ SDS_GUARDED_BY(mu_) = 0;
  /// Most recent collect results, kept for local-decision leases.
  std::vector<proto::StageMetrics> last_collected_ SDS_GUARDED_BY(mu_);
  std::uint64_t last_collect_cycle_ SDS_GUARDED_BY(mu_) = 0;
  bool started_ SDS_GUARDED_BY(mu_) = false;

  Queue<std::function<void()>> work_;
  /// One enforce wave's frames, a transport chunk at a time; the worker
  /// thread's alone.
  // sdscheck: allow(unguarded-field)
  std::vector<std::pair<ConnId, wire::Frame>> enforce_sends_;
  std::thread worker_;
};

}  // namespace sds::runtime
