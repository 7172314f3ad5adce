// GlobalControllerServer — the live global controller: binds an endpoint,
// accepts stage/aggregator registrations, and drives collect → compute →
// enforce control cycles over real transports using the sans-I/O
// GlobalControllerCore for every decision.
//
// Topologies:
//  * Flat: stages register directly; the collect/enforce fan-out goes to
//    one connection per stage (Fig. 2).
//  * Hierarchical: aggregators introduce themselves (Heartbeat) and
//    forward their stages' registrations; fan-out goes to one connection
//    per aggregator (Fig. 3). Mixed topologies also work — directly
//    attached stages are folded into the hierarchical compute path.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/cycle_stats.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "monitor/resource_monitor.h"
#include "rpc/gather.h"
#include "runtime/server_telemetry.h"
#include "transport/transport.h"

namespace sds::runtime {

struct GlobalServerOptions {
  core::GlobalOptions core;
  /// Deadline for each gather (collect replies / enforce acks).
  Nanos phase_timeout = seconds(5);
  /// Fraction of expected replies that lets a gather wave proceed before
  /// its deadline (degraded-cycle contract, DESIGN.md §12). 1.0 keeps
  /// the pre-fault behaviour: wait the full deadline for every reply.
  /// Below 1.0, a cycle that closes on quorum is recorded as degraded
  /// with the silent stages counted stale instead of stalling the plane.
  double collect_quorum = 1.0;
  /// Observability: when enabled, cycle histograms, transport counters
  /// and gather stats register into one MetricsRegistry (shared when
  /// `telemetry.registry` is set) and a TelemetryReporter thread exports
  /// JSONL/Prometheus snapshots to `telemetry.out_dir`.
  telemetry::TelemetryOptions telemetry = {};
  /// Local-decision mode (paper §VI): instead of computing per-stage
  /// rules centrally, grant each aggregator a demand-proportional budget
  /// lease and let it run PSFA over its own subtree. Requires a purely
  /// hierarchical topology (no directly-attached stages).
  bool local_decisions = false;
  /// How long each granted lease stays valid.
  Nanos lease_validity = seconds(10);
};

class GlobalControllerServer {
 public:
  GlobalControllerServer(
      transport::Network& network, std::string address,
      GlobalServerOptions options,
      std::unique_ptr<policy::ControlAlgorithm> algorithm = nullptr,
      const Clock& clock = SystemClock::instance());
  ~GlobalControllerServer();

  GlobalControllerServer(const GlobalControllerServer&) = delete;
  GlobalControllerServer& operator=(const GlobalControllerServer&) = delete;

  Status start(const transport::EndpointOptions& endpoint_options = {});

  /// Run one full control cycle; returns its phase breakdown. Partial
  /// collect/enforce rounds (timeouts, dead peers) still complete the
  /// cycle over the replies that did arrive.
  Result<core::PhaseBreakdown> run_cycle();

  /// Run `n` back-to-back cycles (the paper's stress workload).
  Status run_cycles(std::size_t n);

  [[nodiscard]] const core::CycleStats& stats() const { return stats_; }

  /// Set a job's QoS weight (thread-safe).
  void set_job_weight(JobId job, double weight);
  void set_budgets(core::Budgets budgets);

  /// Liveness probe (paper §VI dependability): heartbeat every known
  /// aggregator and directly-attached stage connection, wait up to
  /// `timeout` for acks, and return the peers that did not answer —
  /// candidates for eviction/failover. A hung peer (process alive,
  /// thread stuck) is detected here even though its connection stays
  /// open.
  struct DeadPeer {
    ConnId conn;
    /// Valid when the silent peer was an aggregator.
    ControllerId aggregator = ControllerId::invalid();
  };
  [[nodiscard]] Result<std::vector<DeadPeer>> probe_liveness(Nanos timeout);

  /// Evict a silent peer: drop its registry entries and close the
  /// connection (its stages will re-register via their failover list).
  void evict(const DeadPeer& peer);

  [[nodiscard]] std::size_t registered_stages() const;
  [[nodiscard]] std::size_t known_aggregators() const;
  [[nodiscard]] std::uint32_t epoch() const;
  /// Failover takeover: bump the rule epoch (newer rules supersede).
  void advance_epoch();

  [[nodiscard]] transport::Endpoint* endpoint() { return endpoint_.get(); }
  /// Telemetry registry/tracer (null unless options.telemetry.enabled).
  [[nodiscard]] telemetry::MetricsRegistry* metrics() {
    return telemetry_.registry();
  }
  [[nodiscard]] telemetry::SpanTracer* tracer() { return telemetry_.tracer(); }
  /// Always-on flight recorder (cycle phase spans; dumped on faults and
  /// the first degraded cycle).
  [[nodiscard]] telemetry::FlightRecorder& flight() {
    return telemetry_.flight();
  }
  /// Live introspection endpoint (null unless telemetry.introspect).
  [[nodiscard]] telemetry::IntrospectionServer* introspection() {
    return telemetry_.introspection();
  }
  /// Trigger a flight-recorder dump (also called by FaultDriver hooks).
  void dump_flight(const std::string& reason) {
    telemetry_.dump_flight(reason);
  }
  /// Bound address (the resolved one — e.g. the actual port when the
  /// endpoint was bound to port 0).
  [[nodiscard]] const std::string& address() const {
    return endpoint_ ? endpoint_->address() : address_;
  }

  void shutdown();

 private:
  struct CycleTargets {
    std::vector<ConnId> stage_conns;              // direct stages
    std::vector<std::pair<ConnId, ControllerId>> aggregators;
  };

  void on_frame(ConnId conn, wire::Frame frame);
  void on_conn_closed(ConnId conn);
  /// Record collect/compute/enforce spans for a finished cycle.
  void trace_cycle(std::uint64_t cycle, const core::PhaseBreakdown& breakdown);
  [[nodiscard]] CycleTargets snapshot_targets() const;
  /// Local-decision mode: compute + grant budget leases and await the
  /// aggregators' merged enforcement acks.
  Result<core::PhaseBreakdown> run_lease_phase(
      std::uint64_t cycle,
      const std::vector<proto::AggregatedMetrics>& aggregated,
      const CycleTargets& targets, core::PhaseBreakdown breakdown,
      Stopwatch& phase);

  transport::Network* network_;
  const std::string address_;
  GlobalServerOptions options_;
  const Clock* clock_;

  std::unique_ptr<transport::Endpoint> endpoint_;
  rpc::Dispatcher dispatcher_;
  ServerTelemetry telemetry_;

  /// Rebind the store to the current flat roster if it changed.
  void sync_store() SDS_REQUIRES(mu_);
  /// Store slot for a delta that omitted its stage id: the slot of the
  /// connection's single registered stage (kInvalidIndex when the conn
  /// is unknown or carries several stages — ambiguous, so rejected).
  [[nodiscard]] std::uint32_t store_hint(ConnId conn) const SDS_REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kRuntimeServer};
  core::GlobalControllerCore core_ SDS_GUARDED_BY(mu_);
  /// Columnar metrics store backing the flat incremental compute path.
  core::MetricsStore store_ SDS_GUARDED_BY(mu_);
  /// Roster moved since the last sync_store() (starts true: first cycle
  /// binds the initial roster).
  bool store_roster_changed_ SDS_GUARDED_BY(mu_) = true;
  std::unordered_map<ConnId, std::vector<StageId>> stages_by_conn_
      SDS_GUARDED_BY(mu_);
  std::unordered_map<ConnId, ControllerId> aggregators_by_conn_
      SDS_GUARDED_BY(mu_);
  /// Touched only by the control thread driving run_cycle(); the stats()
  /// accessor is safe once cycles stop (test introspection).
  core::CycleStats stats_;  // sdscheck: allow(unguarded-field)
  /// Per-phase CPU/RSS attribution (control thread only; inert unless
  /// telemetry is enabled).
  monitor::PhaseResourceProbe phase_probe_;  // sdscheck: allow(unguarded-field)
  /// First degraded cycle dumps the flight ring once per server run.
  bool flight_dumped_ = false;  // sdscheck: allow(unguarded-field)
  /// First cycle time each currently-silent peer went missing (control
  /// thread only). A later fresh reply records the gap as recovery time.
  std::unordered_map<ConnId, Nanos> missing_since_;  // sdscheck: allow(unguarded-field)
  std::uint64_t heartbeat_seq_ SDS_GUARDED_BY(mu_) = 0;
  bool started_ SDS_GUARDED_BY(mu_) = false;
};

}  // namespace sds::runtime
