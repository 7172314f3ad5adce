// ControllerNode — one live controller of the control tree at any tier,
// the runtime counterpart of the simulator's Node (DESIGN.md §11). A node
// with no upstream address is the root: it drives collect → compute →
// enforce cycles from run_cycle() on the caller's thread. Any other node
// dials its parent, introduces itself with a Heartbeat carrying its
// ControllerId, and serves the parent's frames on a worker thread (the
// delivery thread must stay free to route gather replies). Children are
// stages and controllers in any mix: an aggregator below an aggregator
// makes a 3-level tree.
//
// Every node registers (upsert, ack, forward up), collects (one request
// image down; stage reports, full or delta, and AggregatedMetrics up to a
// quorum) and enforces (one EnforceBatch per child connection; acks up)
// on one path. Stage reports fold into the node's one MetricsStore, where
// a silent or refused stage keeps its last accepted report. A root with
// no controller children then computes from the store; any other node
// summarizes it (aggregate_from_store) for its parent, or for compute.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/aggregator.h"
#include "core/cycle_stats.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "monitor/resource_monitor.h"
#include "rpc/gather.h"
#include "runtime/server_telemetry.h"
#include "transport/transport.h"

namespace sds::runtime {

struct ControllerNodeOptions {
  /// Root decisions: budgets, split strategy and rule epoch.
  core::GlobalOptions core;
  /// This node's id as its parent knows it (interior nodes).
  ControllerId id;
  /// The parent's address; empty makes this node the root.
  std::string upstream_address;
  /// Deadline for each gather (collect replies / enforce acks).
  Nanos phase_timeout = seconds(5);
  /// Fraction of expected replies that lets a gather wave proceed before
  /// its deadline (degraded-cycle contract, DESIGN.md §12). 1.0 waits
  /// the full deadline for every reply; below 1.0, a cycle that closes
  /// on quorum is recorded as degraded with the silent stages stale.
  double collect_quorum = 1.0;
  /// Transport, gather and (at the root) cycle instruments, exported to
  /// `telemetry.out_dir` when set.
  telemetry::TelemetryOptions telemetry = {};
  /// Local-decision mode (paper §VI): the root grants each controller
  /// child a demand-proportional budget lease, and the child runs PSFA
  /// over its own stages. Requires no stages attached to the root.
  bool local_decisions = false;
  /// How long each granted lease stays valid.
  Nanos lease_validity = seconds(10);
};

class ControllerNode {
 public:
  ControllerNode(transport::Network& network, std::string address,
                 ControllerNodeOptions options,
                 std::unique_ptr<policy::ControlAlgorithm> algorithm = nullptr,
                 const Clock& clock = SystemClock::instance());
  ~ControllerNode();

  ControllerNode(const ControllerNode&) = delete;
  ControllerNode& operator=(const ControllerNode&) = delete;

  /// Bind; a node with a parent also dials it and introduces itself.
  Status start(const transport::EndpointOptions& endpoint_options = {});

  /// Root: run one full control cycle; returns its phase breakdown.
  /// Partial rounds (timeouts, dead peers) still complete the cycle over
  /// the replies that did arrive. kFailedPrecondition below the root.
  Result<core::PhaseBreakdown> run_cycle();

  /// Run `n` back-to-back cycles (the paper's stress workload).
  Status run_cycles(std::size_t n);

  /// The root's cycle records (read them once cycles stop).
  [[nodiscard]] const core::CycleStats& stats() const { return stats_; }

  /// Set a job's QoS weight (thread-safe).
  void set_job_weight(JobId job, double weight);
  void set_budgets(core::Budgets budgets);

  /// Liveness probe (paper §VI dependability): heartbeat every child
  /// connection and return the peers that did not ack within `timeout`,
  /// hung ones whose connection stays open included.
  struct DeadPeer {
    ConnId conn;
    /// Valid when the silent peer was a controller child.
    ControllerId aggregator = ControllerId::invalid();
  };
  [[nodiscard]] Result<std::vector<DeadPeer>> probe_liveness(Nanos timeout);

  /// Evict a silent peer: drop its roster entries and close the
  /// connection (its stages will re-register via their failover list).
  void evict(const DeadPeer& peer);

  [[nodiscard]] std::size_t registered_stages() const;
  /// Controller children (peers that introduced themselves).
  [[nodiscard]] std::size_t known_aggregators() const;
  [[nodiscard]] std::uint32_t epoch() const;
  /// Failover takeover: bump the rule epoch (newer rules supersede).
  void advance_epoch();

  [[nodiscard]] ControllerId id() const { return options_.id; }
  /// Parent cycles this node has served (collect waves relayed down).
  [[nodiscard]] std::uint64_t cycles_served() const { return cycles_served_; }

  [[nodiscard]] transport::Endpoint* endpoint() { return endpoint_.get(); }
  /// Telemetry registry/tracer (null unless options.telemetry.enabled).
  [[nodiscard]] telemetry::MetricsRegistry* metrics() {
    return telemetry_.registry();
  }
  [[nodiscard]] telemetry::SpanTracer* tracer() { return telemetry_.tracer(); }
  /// Always-on flight recorder (cycle phase or hop spans; the root dumps
  /// it on faults and the first degraded cycle).
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
  /// Bound address (resolved — the actual port when bound to port 0).
  [[nodiscard]] const std::string& address() const {
    return endpoint_ ? endpoint_->address() : address_;
  }

  void shutdown();

 private:
  /// What one collect wave brought back (stage reports are in the store).
  struct Collected {
    /// Controller children's summaries in child order, and their conns.
    std::vector<proto::AggregatedMetrics> summaries;
    std::vector<ConnId> summary_conns;
    /// Controller children the wave expected (none: compute from store).
    std::size_t controllers = 0;
    /// Stage replies that arrived, folded or refused.
    std::size_t stage_replies = 0;
    /// Root: stages with no fresh report (silent, refused, or a silent
    /// child's whole subtree).
    std::size_t stale = 0;
    Nanos stages_closed{0};  // the rest of the collect is aggregation tail
  };
  /// What one enforce wave brought back.
  struct Acks {
    std::vector<rpc::Gather::Reply> replies;
    std::size_t missing = 0;
    Nanos disseminated{0};  // the rest of the enforce is the ack wait
  };
  struct ControllerChild {
    ConnId conn;
    ControllerId id;
  };

  [[nodiscard]] bool is_root() const {
    return options_.upstream_address.empty();
  }
  /// Handles one frame no gather took (a loop over the fallback run).
  void on_frame(ConnId conn, wire::Frame& frame);
  void on_conn_closed(ConnId conn);

  /// Send `request` to every child (one encode for all of them), gather
  /// their replies and fold the stages' into the store.
  Collected collect(const proto::CollectRequest& request,
                    const std::optional<wire::TraceContext>& ctx,
                    Stopwatch& phase);
  /// Send `rules` down, one batch per child connection, and gather the
  /// acks.
  Acks enforce(std::uint64_t cycle, std::span<const proto::Rule> rules,
               const std::optional<wire::TraceContext>& ctx, Stopwatch& phase);

  /// Root, local-decision mode: lease budgets to the controller children
  /// that reported and await their merged acks.
  Result<core::PhaseBreakdown> run_lease_phase(std::uint64_t cycle,
                                               const Collected& collected,
                                               core::PhaseBreakdown breakdown,
                                               Stopwatch& phase);
  /// Root: record collect/compute/enforce spans for a finished cycle.
  void trace_cycle(std::uint64_t cycle, const core::PhaseBreakdown& breakdown);
  /// Record one of this node's spans, caused by `cause`'s span, in the
  /// flight ring and the tracer.
  void record_span(const char* name, const char* category, std::uint64_t cycle,
                   wire::TraceContext cause, Nanos start, Nanos duration,
                   telemetry::SpanPhase phase);

  /// Interior: serve one of the parent's frames (worker thread).
  void serve(const wire::Frame& frame);
  void serve_collect(const proto::CollectRequest& request,
                     const std::optional<wire::TraceContext>& ctx);
  /// Enforce `rules` below this node and send the merged ack up.
  void serve_rules(std::uint64_t cycle, std::span<const proto::Rule> rules,
                   const std::optional<wire::TraceContext>& ctx);
  /// This hop's own context (our span as the parent of downstream work);
  /// nullopt when the inbound frame carried no trace.
  [[nodiscard]] std::optional<wire::TraceContext> child_context(
      const std::optional<wire::TraceContext>& ctx, const char* name) const;

  /// Rebind the store to the current direct-stage roster if it changed,
  /// or if its consumer did: `computes` when compute_from_store drains
  /// the store's dirty set this cycle, not when aggregate_from_store does.
  void sync_store(bool computes) SDS_REQUIRES(mu_);
  /// Store slot for a delta that omitted its stage id: the slot of the
  /// connection's one registered stage, else kInvalidIndex.
  [[nodiscard]] std::uint32_t store_hint(ConnId conn) const SDS_REQUIRES(mu_);

  transport::Network* network_;
  const std::string address_;
  ControllerNodeOptions options_;
  const Clock* clock_;

  std::unique_ptr<transport::Endpoint> endpoint_;
  rpc::Dispatcher dispatcher_;
  ServerTelemetry telemetry_;
  telemetry::Counter* cycles_counter_ = nullptr;

  mutable Mutex mu_{LockRank::kRuntimeServer};
  /// Decisions and the roster: each stage registered here, its conn and
  /// the controller child it came through (`via`).
  core::GlobalControllerCore core_ SDS_GUARDED_BY(mu_);
  /// The node's store of stage reports (`summarizer_.store()`), its
  /// summaries of them, merged acks and leased decisions.
  core::AggregatorCore summarizer_ SDS_GUARDED_BY(mu_);
  /// Roster moved since the last sync_store().
  bool store_roster_changed_ SDS_GUARDED_BY(mu_) = true;
  /// The consumer the store was last bound for (see sync_store).
  bool store_computes_ SDS_GUARDED_BY(mu_) = false;
  /// Stages registered on each child connection (upserts may repeat one).
  std::unordered_map<ConnId, std::vector<StageId>> stages_by_conn_
      SDS_GUARDED_BY(mu_);
  /// Controller children in ControllerId order.
  std::vector<ControllerChild> controllers_ SDS_GUARDED_BY(mu_);
  ConnId upstream_ SDS_GUARDED_BY(mu_) = ConnId::invalid();
  bool started_ SDS_GUARDED_BY(mu_) = false;

  // The rest belongs to the one thread that runs waves: the caller of
  // run_cycle() at the root, the worker elsewhere.
  core::CycleStats stats_;  // sdscheck: allow(unguarded-field)
  /// Per-phase CPU/RSS attribution (inert unless telemetry is enabled).
  monitor::PhaseResourceProbe phase_probe_;  // sdscheck: allow(unguarded-field)
  /// First degraded cycle dumps the flight ring once per node run.
  bool flight_dumped_ = false;  // sdscheck: allow(unguarded-field)
  /// When each currently-silent peer went missing (recovery time).
  std::unordered_map<ConnId, Nanos> missing_since_;  // sdscheck: allow(unguarded-field)
  /// One enforce wave's routing, (connection, rule index) pairs.
  // sdscheck: allow(unguarded-field)
  std::vector<std::pair<ConnId, std::size_t>> routed_;
  /// The batch being encoded and the frames of one transport chunk.
  proto::EnforceBatch batch_;  // sdscheck: allow(unguarded-field)
  // sdscheck: allow(unguarded-field)
  std::vector<std::pair<ConnId, wire::Frame>> sends_;

  std::atomic<std::uint64_t> cycles_served_{0};
  std::atomic<std::uint64_t> heartbeat_seq_{0};
  Queue<std::function<void()>> work_;
  std::thread worker_;
};

}  // namespace sds::runtime
