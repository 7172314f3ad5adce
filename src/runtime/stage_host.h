// StageHost — live data-plane process hosting one or more virtual stages
// (the paper runs 50 per compute node). Each stage keeps its OWN
// connection to its controller, exactly like the paper's deployment, so
// controller-side connection counts are realistic.
//
// Reactive: collect requests and enforce batches are answered inline on
// the endpoint's delivery thread. Supports failover: when a stage's
// controller connection drops, the host re-dials the next address in its
// controller list and re-registers (paper §VI dependability).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/queue.h"

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "rpc/gather.h"
#include "runtime/server_telemetry.h"
#include "stage/virtual_stage.h"
#include "transport/transport.h"

namespace sds::runtime {

struct StageHostOptions {
  /// Addresses of controllers to register with, in failover order.
  std::vector<std::string> controller_addresses;
  Nanos register_timeout = seconds(5);
  /// Redial + re-register when a controller connection closes.
  bool auto_failover = true;
  /// Delta-encoded collect replies: after a stage's first report on its
  /// current registration, answer collects with a StageMetricsDelta
  /// carrying only the fields that changed (no stage id — the controller
  /// resolves the per-stage connection to the store slot). A full
  /// StageMetrics refresh goes out every `delta_refresh` collects
  /// (staggered by stage id), after a re-registration, and whenever the
  /// collect cycle sequence gapped — a skipped cycle often means the
  /// controller also lost the previous reply, which would break the
  /// delta chain (it validates the base cycle and drops mismatches).
  bool delta_metrics = false;
  std::size_t delta_refresh = 64;
  /// Observability: transport counters and the collects-answered counter
  /// register into one MetricsRegistry (shared when `telemetry.registry`
  /// is set); exported when `out_dir` is configured.
  telemetry::TelemetryOptions telemetry = {};
};

class StageHost {
 public:
  StageHost(transport::Network& network, std::string address,
            StageHostOptions options, const Clock& clock = SystemClock::instance());
  ~StageHost();

  StageHost(const StageHost&) = delete;
  StageHost& operator=(const StageHost&) = delete;

  /// Bind the endpoint and install handlers.
  Status start(const transport::EndpointOptions& endpoint_options = {});

  /// Add a virtual stage (before or after start).
  Status add_stage(proto::StageInfo info, stage::DemandFn data_demand,
                   stage::DemandFn meta_demand);

  /// Dial the primary controller and register every stage.
  Status register_all();

  /// The stage's currently enforced limit (test introspection).
  [[nodiscard]] Result<double> stage_limit(StageId stage_id,
                                           stage::Dimension dim) const;

  [[nodiscard]] std::size_t stage_count() const;
  [[nodiscard]] transport::Endpoint* endpoint() { return endpoint_.get(); }

  /// Total collect requests answered (liveness introspection).
  [[nodiscard]] std::uint64_t collects_answered() const;

  /// Telemetry registry (null unless options.telemetry.enabled).
  [[nodiscard]] telemetry::MetricsRegistry* metrics() {
    return telemetry_.registry();
  }
  /// Always-on span ring (stage-side hop spans land here).
  [[nodiscard]] telemetry::FlightRecorder& flight() {
    return telemetry_.flight();
  }

  void shutdown();

 private:
  void on_frame(ConnId conn, wire::Frame frame);
  /// Record a hop span for a traced inbound frame and return the trace
  /// context to echo on the reply (nullopt when the frame was untraced).
  /// Each phase has one hop name.
  std::optional<wire::TraceContext> trace_hop(const wire::Frame& frame,
                                              const char* name,
                                              std::uint64_t cycle, Nanos begin,
                                              telemetry::SpanPhase phase)
      SDS_REQUIRES(mu_);
  void on_conn_event(ConnId conn, transport::ConnEvent event);
  Status register_stage(std::size_t index, std::size_t address_index);

  transport::Network* network_;
  const std::string address_;
  StageHostOptions options_;
  const Clock* clock_;

  std::unique_ptr<transport::Endpoint> endpoint_;
  rpc::Dispatcher dispatcher_;
  ServerTelemetry telemetry_;
  telemetry::Counter* collects_counter_ = nullptr;

  mutable Mutex mu_{LockRank::kRuntimeServer};
  struct Slot {
    stage::VirtualStage stage;
    ConnId conn;                    // connection to the controller
    std::size_t address_index = 0;  // which controller it registered with
    /// Delta-chain base: the last report sent over the current
    /// registration (delta_metrics mode; invalidated on re-register).
    proto::StageMetrics last_report;
    bool has_report = false;
  };
  std::vector<std::unique_ptr<Slot>> slots_ SDS_GUARDED_BY(mu_);
  /// Slot index of each stage, for duplicate checks and stage_limit().
  std::unordered_map<StageId, std::size_t> by_stage_ SDS_GUARDED_BY(mu_);
  std::unordered_map<ConnId, std::size_t> by_conn_ SDS_GUARDED_BY(mu_);
  /// Inbound enforce batches decode into this one message, so its rule
  /// vector's storage is reused from frame to frame.
  proto::EnforceBatch enforce_batch_ SDS_GUARDED_BY(mu_);
  /// The last hop span id derived per phase: every stage's hop in one
  /// cycle shares the trace, the track and the name, so the id is
  /// derived once per cycle and phase instead of once per stage.
  struct HopSpanId {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;  // 0: none derived yet
  };
  std::array<HopSpanId,
             static_cast<std::size_t>(telemetry::SpanPhase::kEnforce) + 1>
      hop_span_ids_ SDS_GUARDED_BY(mu_);
  std::uint64_t collects_answered_ SDS_GUARDED_BY(mu_) = 0;
  bool started_ SDS_GUARDED_BY(mu_) = false;
  bool shutting_down_ SDS_GUARDED_BY(mu_) = false;

  /// (slot index, next controller address index) re-registration tasks.
  Queue<std::pair<std::size_t, std::size_t>> failover_queue_;
  std::thread failover_thread_;
};

}  // namespace sds::runtime
