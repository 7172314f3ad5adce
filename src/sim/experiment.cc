#include "sim/experiment.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "policy/incremental_psfa.h"
#include "sim/engine.h"
#include "sim/host.h"
#include "sim/phase_gate.h"

namespace sds::sim {

namespace {

template <typename M>
std::size_t frame_size(const M& msg) {
  return msg.wire_size() + wire::kFrameHeaderSize;
}

Nanos scaled(Nanos per_item, std::size_t count) {
  return Nanos{per_item.count() * static_cast<std::int64_t>(count)};
}

/// Simulated-time spacing of the utilization samples (see
/// ExperimentResult::mean_data_utilization).
constexpr Nanos kUtilizationSampleInterval = millis(50);

/// One simulated run. Event closures capture `this` and plain indices;
/// all vectors are sized before the first event fires.
///
/// Flat, 2-level, 3-level and coordinated designs run as one tree of
/// controller nodes (Node) on one collect and one enforce path, each
/// phase closed by a PhaseGate. Coordinated peers are leaves of the tree
/// that exchange summaries with each other instead of reporting up.
///
/// Cross-cycle aggregates (peer summaries, child reports, pass-through
/// batches) are id-indexed rather than accumulated in arrival order, so
/// their floating-point summation order is fixed by the topology and the
/// recorded outputs stay bit-identical.
class Run {
 public:
  explicit Run(const ExperimentConfig& config)
      : cfg_(config),
        prof_(config.profile),
        global_(core::GlobalOptions{config.budgets,
                                    policy::SplitStrategy::kProportional,
                                    /*epoch=*/1},
                std::make_unique<policy::IncrementalPsfa>(config.psfa)),
        store_(core::MetricsStoreOptions{config.activity_threshold}) {
    if (cfg_.metrics != nullptr) {
      telemetry::Labels labels{{"component", "sim"}};
      if (!cfg_.telemetry_label.empty()) {
        labels.emplace_back("configuration", cfg_.telemetry_label);
      }
      stats_.bind(cfg_.metrics, labels);
      events_gauge_ = cfg_.metrics->gauge("sds_sim_events_executed", labels);
      vtime_gauge_ =
          cfg_.metrics->gauge("sds_sim_virtual_time_seconds", labels);
    }
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->set_track_name(0, "global controller");
      if (cfg_.num_aggregators > 0) {
        for (std::size_t a = 0; a < cfg_.num_aggregators; ++a) {
          cfg_.tracer->set_track_name(static_cast<std::uint32_t>(1 + a),
                                      "aggregator " + std::to_string(a));
        }
      } else if (cfg_.coordinated_peers > 0) {
        for (std::size_t p = 0; p < cfg_.coordinated_peers; ++p) {
          cfg_.tracer->set_track_name(static_cast<std::uint32_t>(1 + p),
                                      "peer " + std::to_string(p));
        }
      } else {
        cfg_.tracer->set_track_name(1, "stage 0");
      }
    }
  }

  Status validate() const {
    const std::size_t cap = prof_.max_connections_per_node;
    if (cfg_.num_stages == 0) {
      return Status::invalid_argument("num_stages must be > 0");
    }
    if (cfg_.fault_plan != nullptr && !cfg_.fault_plan->empty()) {
      SDS_RETURN_IF_ERROR(cfg_.fault_plan->validate());
      // Nothing else bounds a cycle's deadline waits by the run, so a
      // cycle waits at most 2 phases × (1 + max_deadline_extensions) ×
      // duration.
      if (cfg_.fault_plan->phase_timeout > cfg_.duration) {
        std::ostringstream out;
        out << "fault plan phase timeout of "
            << to_millis(cfg_.fault_plan->phase_timeout)
            << " ms exceeds the run duration of " << to_millis(cfg_.duration)
            << " ms";
        return Status::invalid_argument(std::move(out).str());
      }
      if (coordinated() || deep() || cfg_.local_decisions) {
        return Status::invalid_argument(
            "fault injection supports only the flat and 2-level "
            "hierarchical topologies with central decisions");
      }
      if (!flat() && (!cfg_.preaggregate || !cfg_.parallel_fanout)) {
        return Status::invalid_argument(
            "fault injection in hierarchical mode requires pre-aggregation "
            "and parallel fan-out");
      }
    }
    if (cfg_.delta_collect) {
      if (!cfg_.store_collect) {
        return Status::invalid_argument(
            "delta_collect requires the store-backed collect path");
      }
      if (cfg_.delta_refresh == 0) {
        return Status::invalid_argument("delta_refresh must be > 0");
      }
      if (cfg_.fault_plan != nullptr && !cfg_.fault_plan->empty()) {
        return Status::invalid_argument(
            "delta_collect is incompatible with fault injection (a silent "
            "stage would break every subsequent delta chain)");
      }
      if (coordinated() ||
          (!flat() && (!cfg_.preaggregate || cfg_.local_decisions))) {
        return Status::invalid_argument(
            "delta_collect requires the flat or pre-aggregating "
            "hierarchical topology with central decisions");
      }
    }
    if (cfg_.coordinated_peers > 0) {
      if (cfg_.num_aggregators > 0) {
        return Status::invalid_argument(
            "coordinated_peers and num_aggregators are mutually exclusive");
      }
      const std::size_t k = cfg_.coordinated_peers;
      const std::size_t per_peer = (cfg_.num_stages + k - 1) / k;
      if (cap != 0 && per_peer + (k - 1) > cap) {
        return Status::resource_exhausted(
            "coordinated peer would hold " + std::to_string(per_peer + k - 1) +
            " connections, above the per-node cap of " + std::to_string(cap));
      }
      return Status::ok();
    }
    if (flat()) {
      if (cap != 0 && cfg_.num_stages > cap) {
        return Status::resource_exhausted(
            "flat design: " + std::to_string(cfg_.num_stages) +
            " stages exceed the per-node connection cap of " +
            std::to_string(cap));
      }
      return Status::ok();
    }
    if (deep()) {
      if (!cfg_.preaggregate || !cfg_.parallel_fanout || cfg_.local_decisions) {
        return Status::invalid_argument(
            "3-level hierarchies require pre-aggregation, parallel fan-out "
            "and central decisions");
      }
      if (cfg_.num_super_aggregators > cfg_.num_aggregators) {
        return Status::invalid_argument(
            "more super-aggregators than aggregators");
      }
      const std::size_t children =
          (cfg_.num_aggregators + cfg_.num_super_aggregators - 1) /
          cfg_.num_super_aggregators;
      if (cap != 0 && cfg_.num_super_aggregators > cap) {
        return Status::resource_exhausted("too many super-aggregators");
      }
      if (cap != 0 && children + 1 > cap) {
        return Status::resource_exhausted(
            "super-aggregator subtree exceeds the connection cap");
      }
      const std::size_t per_agg =
          (cfg_.num_stages + cfg_.num_aggregators - 1) / cfg_.num_aggregators;
      if (cap != 0 && per_agg + 1 > cap) {
        return Status::resource_exhausted(
            "aggregator subtree of " + std::to_string(per_agg) +
            " stages (+1 upstream link) exceeds the per-node connection "
            "cap of " + std::to_string(cap));
      }
      return Status::ok();
    }
    if (cap != 0 && cfg_.num_aggregators > cap) {
      return Status::resource_exhausted("too many aggregators for one node");
    }
    const std::size_t per_agg =
        (cfg_.num_stages + cfg_.num_aggregators - 1) / cfg_.num_aggregators;
    if (cap != 0 && per_agg > cap) {
      return Status::resource_exhausted(
          "aggregator subtree of " + std::to_string(per_agg) +
          " stages exceeds the per-node connection cap of " +
          std::to_string(cap));
    }
    return Status::ok();
  }

  ExperimentResult execute() {
    if (cfg_.fault_plan != nullptr && !cfg_.fault_plan->empty()) {
      // Compile once against the topology; horizon covers the run twice
      // over so late cycles still see churn. Everything below queries
      // this pure value only — injection is a function of (seed, cycle,
      // entity, virtual time), never of event interleaving.
      fault_ = std::make_unique<fault::CompiledPlan>(fault::CompiledPlan::compile(
          *cfg_.fault_plan, cfg_.num_stages, cfg_.num_aggregators,
          cfg_.duration * 2));
      last_fresh_at_.assign(cfg_.num_stages, Nanos{-1});
    }
    // The store path keeps the legacy batch pipeline for the modes that
    // need per-cycle scratch vectors anyway (degraded compaction,
    // pass-through relays, local decisions, coordinated exchange).
    store_collect_ = cfg_.store_collect && fault_ == nullptr &&
                     !coordinated() &&
                     (flat() || (cfg_.preaggregate && !cfg_.local_decisions));
    delta_collect_ = cfg_.delta_collect && store_collect_;
    build_topology();
    start_cycle();
    run_events();
    return finalize();
  }

 private:
  /// How a node takes part in the cycle. Every node gets the run's
  /// settings today; they are per node because each is a decision one
  /// controller makes about its own subtree.
  struct Policy {
    /// Walk the children one at a time (a child's reply triggers the
    /// next request) instead of fanning out to all of them at once.
    bool serial_fanout = false;
    /// An aggregator relays its raw stage reports instead of a summary;
    /// its parent then merges per stage.
    bool pass_through = false;
    /// An aggregator runs PSFA itself under a budget lease; the root only
    /// re-leases budgets.
    bool local_decisions = false;
    /// Coordinated design (paper §VI): the root's children are peers
    /// that each send their summary to every peer instead of up, and
    /// compute their own stages' rules from all of them. The root only
    /// counts the peers.
    bool coordinated = false;
  };

  /// One controller of the tree: the global controller at the root,
  /// super-aggregators inside it, aggregators or coordinated peers above
  /// the stages.
  struct Node {
    std::unique_ptr<SimHost> host;
    /// Aggregators and peers only (the controllers that fold, summarize
    /// and route, or compute their own rules).
    std::unique_ptr<core::AggregatorCore> core;
    /// Where stage reports fold on the store path: the root's store_ in
    /// the flat design, an aggregator's own store otherwise.
    core::MetricsStore* store = nullptr;
    /// The subtree's stages, a contiguous index range; a node without
    /// children has them as its leaves.
    std::size_t stage_begin = 0;
    std::size_t stage_end = 0;
    /// Child node ids, in child-position order.
    std::vector<std::size_t> children;
    std::size_t parent = 0;
    /// Position among the parent's children (canonical report slot).
    std::size_t child_pos = 0;
    /// Position within the node's tier: the aggregator id (fault plan
    /// entity, rule grouping, lease slot), the peer id or the
    /// super-aggregator id.
    std::size_t index = 0;
    Policy policy;
    /// Stage replies or child reports on the way up; stage or child acks
    /// after enforce went down.
    PhaseGate collect;
    PhaseGate enforce;

    // -- Per-cycle state ----------------------------------------------------
    /// Batch-path stage reports: stage-indexed at the root (its PSFA
    /// input order), arrival-ordered at an aggregator.
    std::vector<proto::StageMetrics> collected;
    /// Child-position-indexed reports (canonical merge order).
    std::vector<proto::AggregatedMetrics> child_summaries;
    std::vector<std::vector<proto::StageMetrics>> child_batches;
    /// Latest aggregator collect close in the subtree (the root's bounds
    /// the `aggregate` sub-segment). Nanos{-1} = none yet.
    Nanos close_max{-1};
    /// Latest instant a stage of the subtree applied a rule (the root's
    /// bounds the `disseminate` sub-segment). Nanos{-1} = none yet.
    Nanos apply_max{-1};
    /// Rules the subtree applied, as acked.
    std::uint32_t applied = 0;
    /// Stale stages and recovery samples, carried up with the report;
    /// the root's are the cycle's.
    std::size_t stale = 0;
    std::vector<Nanos> recoveries;
    /// Summaries a coordinated peer holds, its own included.
    std::size_t exchanged = 0;

    [[nodiscard]] std::size_t stage_count() const {
      return stage_end - stage_begin;
    }
    /// Replies one collect phase expects.
    [[nodiscard]] std::size_t fanout() const {
      return children.empty() ? stage_count() : children.size();
    }
  };

  /// What a node sends its parent when its collect phase closes.
  struct Report {
    /// Pre-aggregated or merged summary.
    proto::AggregatedMetrics summary;
    /// Raw stage reports (pass-through policy).
    std::vector<proto::StageMetrics> entries;
    Nanos close{-1};
    std::size_t stale = 0;
    std::vector<Nanos> recoveries;
  };

  [[nodiscard]] bool coordinated() const { return cfg_.coordinated_peers > 0; }
  [[nodiscard]] bool deep() const {
    return cfg_.num_super_aggregators > 0 && cfg_.num_aggregators > 0;
  }
  [[nodiscard]] bool flat() const {
    return cfg_.num_aggregators == 0 && !coordinated();
  }

  [[nodiscard]] std::size_t num_jobs() const {
    return (cfg_.num_stages + cfg_.stages_per_job - 1) / cfg_.stages_per_job;
  }

  void build_topology() {
    Rng rng(cfg_.seed);
    stages_.reserve(cfg_.num_stages);
    for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
      proto::StageInfo info;
      info.stage_id = StageId{static_cast<std::uint32_t>(i)};
      info.node_id = NodeId{static_cast<std::uint32_t>(i)};
      info.job_id =
          JobId{static_cast<std::uint32_t>(i / cfg_.stages_per_job)};
      // Built in two steps: GCC 12's -Wrestrict misfires on the
      // operator+ temporary here under -O2 (PR 105329).
      info.hostname = "c";
      info.hostname += std::to_string(i);
      stage::DemandFn data;
      stage::DemandFn meta;
      if (cfg_.demand_factory) {
        data = cfg_.demand_factory(info.stage_id, stage::Dimension::kData);
        meta = cfg_.demand_factory(info.stage_id, stage::Dimension::kMeta);
      } else {
        const double d = rng.uniform(500.0, 1500.0);
        const double m = rng.uniform(50.0, 150.0);
        data = [d](Nanos) { return d; };
        meta = [m](Nanos) { return m; };
      }
      stages_.emplace_back(info, std::move(data), std::move(meta));
    }

    const std::size_t n = cfg_.num_stages;
    // The tier above the stages: aggregators, or coordinated peers.
    const std::size_t a_count =
        coordinated() ? cfg_.coordinated_peers : cfg_.num_aggregators;
    const std::size_t s_count = deep() ? cfg_.num_super_aggregators : 0;
    // Peers take none of the hierarchy's fan-out, relay or lease settings.
    const Policy policy =
        coordinated() ? Policy{false, false, false, true}
                      : Policy{!cfg_.parallel_fanout, !cfg_.preaggregate,
                               cfg_.local_decisions, false};
    nodes_.resize(1 + a_count + s_count);
    for (Node& node : nodes_) {
      node.policy = policy;
      node.collect = PhaseGate(fault_.get());
      node.enforce = PhaseGate(fault_.get());
    }
    Node& root = nodes_[kRoot];
    root.host = std::make_unique<SimHost>(eng_, prof_, "global");
    root.store = &store_;

    // Contiguous block partitions: aggregator (or peer) a holds stages
    // [a*n/A, (a+1)*n/A), super-aggregator s holds aggregators
    // [s*A/S, (s+1)*A/S).
    root.stage_end = n;
    for (std::size_t a = 0; a < a_count; ++a) {
      Node& agg = nodes_[1 + a];
      std::string name = coordinated() ? "peer" : "agg";
      name += std::to_string(a);
      agg.host = std::make_unique<SimHost>(eng_, prof_, std::move(name));
      // A peer's summary carries no digests: no one splits its stages but
      // the peer itself.
      agg.core = std::make_unique<core::AggregatorCore>(
          core::AggregatorOptions{ControllerId{static_cast<std::uint32_t>(a)},
                                  cfg_.preaggregate,
                                  /*include_digests=*/!coordinated(),
                                  cfg_.activity_threshold});
      agg.core->policies().set_budgets(cfg_.budgets);  // a peer allocates them
      agg.store = &agg.core->store();
      agg.index = a;
      agg.stage_begin = a * n / a_count;
      agg.stage_end = (a + 1) * n / a_count;
    }
    for (std::size_t s = 0; s < s_count; ++s) {
      const std::size_t id = 1 + a_count + s;
      Node& super = nodes_[id];
      super.host = std::make_unique<SimHost>(eng_, prof_, "super" + std::to_string(s));
      super.index = s;
      for (std::size_t a = s * a_count / s_count;
           a < (s + 1) * a_count / s_count; ++a) {
        adopt(id, 1 + a);
      }
      super.stage_begin = nodes_[super.children.front()].stage_begin;
      super.stage_end = nodes_[super.children.back()].stage_end;
    }
    // The root's children: the top tier below it (none in the flat design).
    const std::size_t top = s_count > 0 ? 1 + a_count : 1;
    for (std::size_t id = top; id < nodes_.size(); ++id) adopt(kRoot, id);

    // Register every stage with the global controller, routed via the
    // aggregator that manages it, and on the store path bind it to the
    // store of the node it reports to.
    // Binding in ascending stage order makes the slot index equal the
    // stage's leaf position, which the collect path relies on to skip the
    // id lookup.
    for (Node& node : nodes_) {
      if (!node.children.empty()) continue;
      const ControllerId via =
          node.core == nullptr
              ? ControllerId::invalid()
              : ControllerId{static_cast<std::uint32_t>(node.index)};
      if (store_collect_) node.store->reset(node.stage_count());
      for (std::size_t i = node.stage_begin; i < node.stage_end; ++i) {
        const proto::StageInfo& info = stages_[i].info();
        const Status added = global_.registry().add({info, ConnId{i}, via});
        assert(added.is_ok());
        (void)added;
        if (store_collect_) {
          const std::uint32_t slot = node.store->bind(info.stage_id, info.job_id);
          assert(slot == static_cast<std::uint32_t>(i - node.stage_begin));
          (void)slot;
        }
      }
    }
    if (delta_collect_) {
      last_report_.assign(cfg_.num_stages, {});
      has_report_.assign(cfg_.num_stages, 0);
    }
  }

  /// Make node `child` the next child of node `parent`.
  void adopt(std::size_t parent, std::size_t child) {
    nodes_[child].parent = parent;
    nodes_[child].child_pos = nodes_[parent].children.size();
    nodes_[parent].children.push_back(child);
  }
  // ------------------------------------------------------------------
  // Cycle driver

  /// Non-CPU synchronization wait at a phase boundary.
  void after_sync(Engine::EventFn fn) {
    eng_.schedule_in(prof_.phase_sync_overhead, std::move(fn));
  }

  /// Wire size of one enforce message carrying `rules` rules (the real
  /// Cheferd payload is larger per rule; see FronteraProfile).
  [[nodiscard]] std::size_t enforce_frame_size(const proto::EnforceBatch& batch) const {
    return frame_size(batch) + batch.rules.size() * prof_.rule_extra_wire_bytes;
  }

  void start_cycle() {
    if (done_) return;
    const proto::CollectRequest req = global_.begin_cycle();
    cycle_ = global_.current_cycle();
    cycle_start_ = eng_.now();
    nodes_[kRoot].close_max = Nanos{-1};
    nodes_[kRoot].apply_max = Nanos{-1};
    collect_req_size_ = frame_size(req);
    after_sync([this] { start_collect(); });
  }

  // -- Fault-injection helpers -------------------------------------------
  //
  // Callable only when fault_ is set (except stage_latency, which is the
  // healthy constant otherwise). Each injection bumps faults_injected_.

  /// Stage can emit/accept messages at `t` (up and not partitioned).
  [[nodiscard]] bool stage_reachable(std::size_t i, Nanos t) {
    if (fault_->stage_up(i, t) && !fault_->partitioned(i, t)) return true;
    ++faults_injected_;
    return false;
  }

  /// Stage-side service latency for one message, with any slow-window
  /// multiplier applied to the CPU share.
  [[nodiscard]] Nanos stage_latency(std::size_t i, Nanos t) {
    Nanos service = prof_.stage_service;
    if (fault_ != nullptr) {
      const double mult = fault_->service_multiplier(i, t);
      if (mult > 1.0) {
        service = Nanos{static_cast<std::int64_t>(
            static_cast<double>(service.count()) * mult)};
        ++faults_injected_;
      }
    }
    return service + prof_.wire_latency;
  }

  /// Apply the per-message fate for a reply/ack/report of `kind` from
  /// `entity` this cycle. Returns false when the message is dropped;
  /// otherwise adjusts `latency` (delay fate) and `copies` (duplicate
  /// fate — the extra copy pays receive cost but is discarded by the
  /// receiver's seen-guard).
  [[nodiscard]] bool reply_fate(fault::MessageKind kind, std::uint64_t entity,
                                Nanos& latency, std::size_t& copies) {
    switch (fault_->message_fate(kind, cycle_, entity)) {
      case fault::MessageFate::kDrop:
        ++faults_injected_;
        return false;
      case fault::MessageFate::kDuplicate:
        ++faults_injected_;
        copies = 2;
        return true;
      case fault::MessageFate::kDelay:
        ++faults_injected_;
        latency = latency + fault_->delay();
        return true;
      case fault::MessageFate::kDeliver:
        return true;
    }
    return true;
  }

  /// Recovery accounting on a fresh (first-this-cycle) collect reply from
  /// stage `i` at `t`: if the stage restarted since its last fresh reply,
  /// the restart-to-now gap is one recovery sample.
  void note_fresh_reply(std::size_t i, Nanos t, std::vector<Nanos>& sink) {
    const Nanos restart = fault_->last_stage_restart_before(i, t);
    if (restart.count() >= 0 && last_fresh_at_[i] < restart) {
      sink.push_back(t - restart);
    }
    last_fresh_at_[i] = t;
  }
  /// Frame a stage report for the wire: under delta_collect a stage
  /// that already reported sends the compact delta against its previous
  /// report, refreshed with a full frame every `delta_refresh` cycles
  /// (staggered by stage index).
  struct CollectFrame {
    proto::StageMetricsDelta delta;
    std::size_t wire = 0;       ///< modeled frame bytes (delta or full)
    std::size_t wire_full = 0;  ///< full-frame equivalent bytes
    bool is_delta = false;
  };
  CollectFrame frame_report(std::size_t i, const proto::StageMetrics& m) {
    CollectFrame f;
    f.wire_full = frame_size(m);
    f.wire = f.wire_full;
    if (delta_collect_) {
      if (has_report_[i] != 0 && (cycle_ + i) % cfg_.delta_refresh != 0) {
        f.delta = proto::StageMetricsDelta::make(last_report_[i], m,
                                                 /*include_stage_id=*/false);
        f.wire = frame_size(f.delta);
        f.is_delta = true;
      }
      last_report_[i] = m;
      has_report_[i] = 1;
    }
    return f;
  }

  /// Wire accounting for one accepted collect report.
  void account_collect_frame(const CollectFrame& fr) {
    collect_wire_bytes_ += fr.wire;
    collect_wire_bytes_full_ += fr.wire_full;
    if (fr.is_delta) {
      ++collect_frames_delta_;
    } else {
      ++collect_frames_full_;
    }
  }

  // -- The control tree ----------------------------------------------------
  //
  // Flat, 2-level, 3-level and coordinated runs are one tree of
  // controller nodes (see Node). A cycle walks it twice. Collect goes
  // down as requests and comes back up as reports: a node with stage
  // leaves folds their replies, any other node merges its children's
  // reports, and every node but the root reports to its parent once its
  // collect gate closes. Enforce goes down as rule batches (or budget
  // leases) and comes back up as acks the same way. The root computes
  // between the two walks and closes the cycle when its enforce gate
  // closes.
  //
  // Coordinated peers differ in two steps only. A peer sends its summary
  // to every peer instead of up, and once it holds all K it computes its
  // own rules (decide_coordinated). Phase boundaries are the last peer
  // past each step: collect ends when the last peer holds every summary,
  // compute when the last peer has computed, and the root closes the
  // cycle when the last peer's enforce closes.

  /// Restart every node's collect count and open the root's collect.
  /// Each non-root node raises its guard only when the request reaches
  /// it, so a straggler from the previous cycle is ordered against that
  /// instant in virtual time.
  void start_collect() {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      Node& node = nodes_[n];
      node.collect.begin(node.fanout());
      node.close_max = Nanos{-1};
      node.exchanged = 0;
      if (!node.children.empty()) {
        node.child_summaries.assign(node.children.size(), {});
        if (node.policy.pass_through) {
          node.child_batches.assign(node.children.size(), {});
        }
      } else if (n != kRoot) {
        node.collected.clear();
      } else if (!store_collect_) {
        // The root's batch input is stage-indexed (its PSFA input order);
        // the store path folds in place and needs no scratch.
        node.collected.assign(node.stage_count(), {});
      }
    }
    collect_down(kRoot);
  }

  /// The collect request reached node `n`: raise its guard, then fan
  /// the request out to its stages or its children.
  void collect_down(std::size_t n) {
    Node& node = nodes_[n];
    // A crashed aggregator leaves its whole subtree silent; the parent's
    // deadline counts it stale.
    if (fault_ != nullptr && !node_up(node)) return;
    node.stale = 0;
    node.recoveries.clear();
    guard(n, Phase::kCollect);
    if (node.children.empty()) {
      node.host->broadcast(node.stage_count(), collect_req_size_,
                           [this, n](std::size_t i) {
                             return [this, n, i] { on_stage_collect(n, i); };
                           });
      // More aggregators or peers than stages leave a leaf with no stage,
      // and no reply to wait for.
      if (node.stage_count() == 0) close_collect(n);
    } else if (node.policy.coordinated) {
      // Peers need no request: each opens its own collect now. The
      // root's enforce gate counts the peers whose enforce has closed.
      open_enforce(node, node.children.size());
      for (const std::size_t c : node.children) collect_down(c);
    } else if (node.policy.serial_fanout) {
      send_collect(n, 0);
    } else {
      node.host->broadcast(
          node.children.size(), collect_req_size_, [&](std::size_t k) {
            const std::size_t c = node.children[k];
            return [this, c] {
              nodes_[c].host->receive(collect_req_size_,
                                      [this, c] { collect_down(c); });
            };
          });
    }
  }

  /// Serial fan-out: the request to child `k` of node `n` alone.
  void send_collect(std::size_t n, std::size_t k) {
    const std::size_t c = nodes_[n].children[k];
    nodes_[n].host->send(collect_req_size_, [this, c] {
      nodes_[c].host->receive(collect_req_size_, [this, c] { collect_down(c); });
    });
  }

  /// At stage leaf `i` of node `n`: answer the collect request.
  void on_stage_collect(std::size_t n, std::size_t i) {
    const std::size_t idx = nodes_[n].stage_begin + i;
    if (fault_ != nullptr && !stage_reachable(idx, eng_.now())) return;
    const proto::StageMetrics m = stages_[idx].collect(cycle_, eng_.now());
    const CollectFrame fr = frame_report(idx, m);
    const std::size_t sz = fr.wire;
    Nanos latency = stage_latency(idx, eng_.now());
    if (cfg_.tracer != nullptr && n == kRoot && i == 0) {
      // Representative per-stage span (stage 0 only — one per cycle, not
      // one per stage) so flat traces also show a second component.
      telemetry::Span span;
      span.name = "stage.collect";
      span.category = "component";
      span.track = 1;
      span.cycle = cycle_;
      span.start = eng_.now();
      span.duration = latency;
      span.trace_id = cycle_;
      span.span_id = telemetry::derive_span_id(cycle_, 1, span.name);
      span.parent_span = telemetry::derive_span_id(cycle_, 0, "collect");
      span.phase = telemetry::SpanPhase::kCollect;
      cfg_.tracer->record(std::move(span));
    }
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        !reply_fate(fault::MessageKind::kCollectReply, idx, latency, copies)) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      eng_.schedule_in(latency, [this, n, i, m, fr, sz, c = cycle_] {
        nodes_[n].host->receive(sz, [this, n, i, m, fr, c] {
          accept_stage_report(n, i, m, fr, c);
        });
      });
    }
  }

  void accept_stage_report(std::size_t n, std::size_t i,
                           const proto::StageMetrics& m,
                           const CollectFrame& fr, std::uint64_t c) {
    Node& node = nodes_[n];
    if (!node.collect.accept(i, c)) return;  // duplicate or straggler
    if (fault_ != nullptr) {
      note_fresh_reply(node.stage_begin + i, eng_.now(), node.recoveries);
    }
    account_collect_frame(fr);
    if (store_collect_) {
      // Slot index == leaf position (bind order).
      const auto slot = static_cast<std::uint32_t>(i);
      if (fr.is_delta) {
        const core::DeltaStatus status = node.store->apply_delta(fr.delta, slot);
        assert(status == core::DeltaStatus::kApplied);
        (void)status;
      } else {
        node.store->update_at(slot, m);
      }
    } else if (n == kRoot) {
      node.collected[i] = m;
    } else {
      node.collected.push_back(m);  // an aggregator summarizes in arrival order
    }
    if (node.collect.complete()) close_collect(n);
  }

  /// Node `n` closed its collect phase, on the last reply or on its
  /// deadline: the root computes, any other node reports up.
  void close_collect(std::size_t n) {
    Node& node = nodes_[n];
    if (fault_ != nullptr) {
      node.collect.close();
      if (node.collect.missing() > 0) {
        // A silent stage is stale; a silent child makes its whole
        // subtree stale.
        if (node.children.empty()) {
          node.stale += node.collect.missing();
        } else {
          for (std::size_t k = 0; k < node.children.size(); ++k) {
            if (!node.collect.seen(k)) {
              node.stale += nodes_[node.children[k]].stage_count();
            }
          }
        }
        if (n == kRoot) cycle_degraded_ = true;
      }
    }
    if (n == kRoot) {
      collect_end_ = eng_.now();
      compute();
    } else {
      report_up(n);
    }
  }

  /// Node `n` summarizes its subtree — a pre-aggregated or relayed batch
  /// of its stage reports, or the merge of its children's reports — and
  /// sends it to its parent after the CPU work (a coordinated peer shares
  /// it with every peer instead).
  void report_up(std::size_t n) {
    Node& node = nodes_[n];
    auto report = std::make_shared<Report>();
    Nanos cost{0};
    std::size_t sz = 0;
    if (node.children.empty()) {
      // Local sub-collect close instant; travels up to the root, where
      // the max over aggregators bounds the `aggregate` sub-segment.
      report->close = eng_.now();
      if (cfg_.tracer != nullptr) {
        telemetry::Span span;
        span.name = "agg.collect";
        span.category = "component";
        span.track = static_cast<std::uint32_t>(n);
        span.cycle = cycle_;
        span.start = cycle_start_;
        span.duration = report->close - cycle_start_;
        span.trace_id = cycle_;
        span.span_id = telemetry::derive_span_id(cycle_, span.track, span.name);
        span.parent_span = telemetry::derive_span_id(cycle_, 0, "collect");
        span.phase = telemetry::SpanPhase::kCollect;
        cfg_.tracer->record(std::move(span));
      }
      if (node.policy.pass_through) {
        proto::MetricsBatch batch = node.core->passthrough(cycle_, node.collected);
        cost = scaled(prof_.cpu_relay_per_stage, node.stage_count());
        sz = frame_size(batch);
        report->entries = std::move(batch.entries);
      } else {
        // Store path: incremental slot-ordered summary (only dirty jobs
        // re-summed); batch path: full arrival-ordered merge.
        report->summary = store_collect_
                              ? node.core->aggregate_from_store(cycle_)
                              : node.core->aggregate(cycle_, node.collected);
        cost = scaled(prof_.cpu_agg_merge_per_stage, node.stage_count());
        sz = frame_size(report->summary);
      }
    } else {
      // Child order, so the merge is canonical regardless of arrival
      // order; the super tier's ids start at 0x40000000.
      report->summary = core::merge_summaries(
          cycle_,
          ControllerId{static_cast<std::uint32_t>(0x40000000u + node.index)},
          node.child_summaries);
      cost = scaled(prof_.cpu_relay_per_stage, report->summary.digests.size());
      sz = frame_size(report->summary);
      report->close = node.close_max;
    }
    // Degraded-subtree accounting travels with the report.
    report->stale = node.stale;
    report->recoveries.swap(node.recoveries);
    node.host->run(cost, [this, n, report = std::move(report), sz] {
      if (nodes_[n].policy.coordinated) {
        share_summary(n, std::move(report->summary), sz);
        return;
      }
      send_up(n, fault::MessageKind::kAggregatorReport, sz,
              [this, n, report, c = cycle_] { accept_report(n, *report, c); });
    });
  }

  /// Coordinated peer `n` shares its summary: with itself at once, then
  /// with the K-1 other peers in one broadcast. Every peer ends up with
  /// the same K summaries, so they are kept once, at the root, indexed by
  /// peer id; each peer counts the ones it has received.
  void share_summary(std::size_t n, proto::AggregatedMetrics summary,
                     std::size_t sz) {
    const Node& peer = nodes_[n];
    const std::vector<std::size_t>& peers = nodes_[kRoot].children;
    nodes_[kRoot].child_summaries[peer.child_pos] = std::move(summary);
    accept_summary(n);
    peer.host->broadcast(peers.size() - 1, sz, [&](std::size_t i) {
      const std::size_t q = peers[i < peer.child_pos ? i : i + 1];  // skip self
      return [this, q, sz] {
        nodes_[q].host->receive(sz, [this, q] { accept_summary(q); });
      };
    });
  }

  /// At coordinated peer `n`: one more summary is in. With all K its
  /// collect ends, and it computes on its own.
  void accept_summary(std::size_t n) {
    if (++nodes_[n].exchanged < nodes_[kRoot].children.size()) return;
    // Events run in time order, so the last peer to get here sets the
    // collect boundary (and, in decide_coordinated, the compute one).
    collect_end_ = eng_.now();
    decide_coordinated(n);
  }

  /// Send `sz` bytes from node `n` up to its parent, which runs
  /// `deliver` after its receive cost. Under a fault plan the link draws
  /// the `kind` fate of this aggregator, and a message from a crashed
  /// aggregator is lost, leaving the parent to its deadline.
  template <typename Deliver>
  void send_up(std::size_t n, fault::MessageKind kind, std::size_t sz,
               Deliver deliver) {
    Node& node = nodes_[n];
    Nanos extra{0};
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        (!node_up(node) || !reply_fate(kind, node.index, extra, copies))) {
      return;
    }
    const std::size_t p = node.parent;
    for (std::size_t copy = 0; copy < copies; ++copy) {
      node.host->send(sz, [this, p, sz, extra, deliver] {
        if (extra > Nanos{0}) {
          eng_.schedule_in(extra, [this, p, sz, deliver] {
            nodes_[p].host->receive(sz, deliver);
          });
        } else {
          nodes_[p].host->receive(sz, deliver);
        }
      });
    }
  }

  /// At the parent of node `n`: take its report.
  void accept_report(std::size_t n, const Report& report, std::uint64_t c) {
    const Node& child = nodes_[n];
    const std::size_t p = child.parent;
    const std::size_t pos = child.child_pos;
    Node& parent = nodes_[p];
    if (!parent.collect.accept(pos, c)) return;  // duplicate or straggler
    parent.stale += report.stale;
    parent.recoveries.insert(parent.recoveries.end(), report.recoveries.begin(),
                             report.recoveries.end());
    parent.close_max = std::max(parent.close_max, report.close);
    if (child.policy.pass_through) {
      parent.child_batches[pos] = report.entries;
    } else {
      parent.child_summaries[pos] = report.summary;
    }
    if (parent.collect.complete()) {
      close_collect(p);
      return;
    }
    if (parent.policy.serial_fanout && pos + 1 < parent.children.size()) {
      send_collect(p, pos + 1);
    }
  }

  void compute() {
    Node& root = nodes_[kRoot];
    const std::size_t n = cfg_.num_stages;
    Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs());
    if (root.children.empty()) {
      std::size_t received = n;
      if (fault_ != nullptr && root.collect.missing() > 0) {
        // Compact the metrics that actually arrived: default-constructed
        // rows for silent stages would corrupt the PSFA input.
        flat_scratch_.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (root.collect.seen(i)) flat_scratch_.push_back(root.collected[i]);
        }
        received = flat_scratch_.size();
        compute_result_ = global_.compute(std::span<const proto::StageMetrics>(
            flat_scratch_.data(), flat_scratch_.size()));
        compute_view_ = &compute_result_;
      } else if (store_collect_) {
        // Incremental path: only jobs whose stages moved are re-summed and
        // re-split; the returned result is persistent and bit-identical to
        // the batch compute below.
        compute_view_ =
            &global_.compute_from_store(store_, cfg_.psfa_full_recompute);
      } else {
        compute_result_ = global_.compute(std::span<const proto::StageMetrics>(
            root.collected.data(), root.collected.size()));
        compute_view_ = &compute_result_;
      }
      cost = cost + scaled(prof_.cpu_merge_per_stage, received) +
             scaled(prof_.cpu_split_per_stage, n);
    } else if (root.policy.local_decisions) {
      // The root only recomputes per-aggregator budget leases.
      compute_leases();
    } else if (root.policy.pass_through) {
      // Concatenate the relayed batches in child order — canonical input
      // regardless of which batch arrived last.
      passthrough_metrics_.clear();
      for (const auto& entries : root.child_batches) {
        passthrough_metrics_.insert(passthrough_metrics_.end(),
                                    entries.begin(), entries.end());
      }
      compute_result_ = global_.compute(std::span<const proto::StageMetrics>(
          passthrough_metrics_.data(), passthrough_metrics_.size()));
      compute_view_ = &compute_result_;
      cost = cost + scaled(prof_.cpu_merge_per_stage, n) +
             scaled(prof_.cpu_split_per_stage, n);
    } else {
      compute_result_ = global_.compute(std::span<const proto::AggregatedMetrics>(
          root.child_summaries.data(), root.child_summaries.size()));
      compute_view_ = &compute_result_;
      cost = cost + scaled(prof_.cpu_split_per_stage, n);
    }
    after_sync([this, cost] {
      nodes_[kRoot].host->run(cost, [this] {
        compute_end_ = eng_.now();
        after_sync([this] { enforce(); });
      });
    });
  }

  /// Local-decision mode: split the global budgets across aggregators in
  /// proportion to their reported demand.
  void compute_leases() {
    const std::vector<proto::AggregatedMetrics>& reports =
        nodes_[kRoot].child_summaries;
    const auto count = static_cast<double>(reports.size());
    double total_data = 0;
    double total_meta = 0;
    for (const auto& report : reports) {
      for (const auto& job : report.jobs) {
        total_data += job.data_iops;
        total_meta += job.meta_iops;
      }
    }
    leases_.assign(reports.size(), proto::BudgetLease{});
    for (const auto& report : reports) {
      double agg_data = 0;
      double agg_meta = 0;
      for (const auto& job : report.jobs) {
        agg_data += job.data_iops;
        agg_meta += job.meta_iops;
      }
      proto::BudgetLease lease;
      lease.cycle_id = cycle_;
      lease.data_budget = total_data > 0
                              ? cfg_.budgets.data_iops * agg_data / total_data
                              : cfg_.budgets.data_iops / count;
      lease.meta_budget = total_meta > 0
                              ? cfg_.budgets.meta_iops * agg_meta / total_meta
                              : cfg_.budgets.meta_iops / count;
      lease.valid_until_ns =
          static_cast<std::uint64_t>((eng_.now() + seconds(10)).count());
      leases_[report.from.value()] = lease;
    }
  }

  void enforce() {
    const Node& root = nodes_[kRoot];
    if (!root.children.empty() && !root.policy.local_decisions) {
      // One batch per aggregator, indexed by its id.
      enforce_batches_.clear();
      enforce_batches_.resize(cfg_.num_aggregators);
      auto grouped = global_.group_rules(*compute_view_);
      for (auto& [via, batch] : grouped) {
        if (!via.valid()) continue;  // no directly-attached stages here
        enforce_batches_[via.value()] = std::move(batch);
      }
    }
    enforce_down(kRoot);
  }

  /// Restart `node`'s enforce count and the apply accounting it carries.
  static void open_enforce(Node& node, std::size_t expected) {
    node.enforce.begin(expected);
    node.applied = 0;
    node.apply_max = Nanos{-1};
  }

  /// Enforce reached node `n`: fan the batches (or leases) out to its
  /// children, or send rules to its stages — the root's computed rules,
  /// an aggregator's routed share, or its own local decisions.
  void enforce_down(std::size_t n) {
    Node& node = nodes_[n];
    if (node.children.empty()) {
      if (n == kRoot) {
        send_rules(n, compute_view_->rules);
      } else if (node.policy.local_decisions) {
        decide_locally(n);
      } else {
        // group_rules filled this batch with exactly this aggregator's
        // stages, so it goes down whole.
        send_rules(n, enforce_batches_[node.index].rules);
      }
      return;
    }
    open_enforce(node, node.children.size());
    guard(n, Phase::kEnforce);
    if (node.policy.serial_fanout) {
      send_enforce(n, 0);
    } else {
      for (std::size_t k = 0; k < node.children.size(); ++k) send_enforce(n, k);
    }
  }

  /// The enforce message from node `n` to its child `k`: the child's
  /// budget lease, or the rule batch of its subtree.
  void send_enforce(std::size_t n, std::size_t k) {
    const std::size_t c = nodes_[n].children[k];
    const Node& child = nodes_[c];
    std::size_t sz = 0;
    Nanos routing{0};
    if (child.policy.local_decisions) {
      sz = frame_size(leases_[child.index]);
    } else {
      const proto::EnforceBatch& batch = subtree_batch(child);
      sz = enforce_frame_size(batch);
      routing = scaled(prof_.cpu_route_per_rule, batch.rules.size());
    }
    nodes_[n].host->send(
        sz,
        [this, c, sz] {
          // A crashed aggregator loses its subtree's rules; the parent's
          // ack deadline closes the phase degraded.
          if (fault_ != nullptr && !node_up(nodes_[c])) return;
          nodes_[c].host->receive(sz, [this, c] { enforce_down(c); });
        },
        routing);
  }

  /// The rules bound for `node`'s subtree: an aggregator's own batch, or
  /// its descendants' batches concatenated in child order.
  const proto::EnforceBatch& subtree_batch(const Node& node) {
    if (node.children.empty()) return enforce_batches_[node.index];
    combined_batch_.cycle_id = cycle_;
    combined_batch_.rules.clear();
    append_subtree_rules(node, combined_batch_.rules);
    return combined_batch_;
  }

  void append_subtree_rules(const Node& node, std::vector<proto::Rule>& out) {
    if (node.children.empty()) {
      const auto& rules = enforce_batches_[node.index].rules;
      out.insert(out.end(), rules.begin(), rules.end());
      return;
    }
    for (const std::size_t c : node.children) append_subtree_rules(nodes_[c], out);
  }

  /// Local-decision policy: run PSFA on the aggregator's own stages under
  /// its budget lease, then enforce the result.
  void decide_locally(std::size_t n) {
    Node& node = nodes_[n];
    node.core->set_lease(leases_[node.index]);
    auto rules = node.core->local_compute(
        cycle_, node.collected, static_cast<std::uint64_t>(eng_.now().count()));
    const Nanos cost =
        scaled(prof_.cpu_psfa_per_job,
               std::max<std::size_t>(1, num_jobs() / cfg_.num_aggregators)) +
        scaled(prof_.cpu_split_per_stage, node.stage_count());
    node.host->run(cost, [this, n, rules = std::move(rules)] {
      send_rules(n, rules);
    });
  }

  /// Coordinated policy: every peer runs the full global PSFA over the K
  /// summaries (the redundancy that buys global visibility without a
  /// central controller), splits only its own stages' share and enforces
  /// it. There is no sync wait: the exchange is the only coordination.
  void decide_coordinated(std::size_t n) {
    Node& node = nodes_[n];
    auto rules = node.core->compute_own_rules(
        cycle_, nodes_[kRoot].child_summaries, node.collected);
    const Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs()) +
                       scaled(prof_.cpu_split_per_stage, node.stage_count());
    node.host->run(cost, [this, n, rules = std::move(rules)] {
      compute_end_ = eng_.now();  // the last peer to compute sets it
      send_rules(n, rules);
    });
  }

  /// Send each rule to its stage as a one-rule batch and gather the acks.
  void send_rules(std::size_t n, const std::vector<proto::Rule>& rules) {
    Node& node = nodes_[n];
    open_enforce(node, rules.size());
    if (rules.empty()) {
      finish_enforce(n);
      return;
    }
    guard(n, Phase::kEnforce);
    const auto node32 = static_cast<std::uint32_t>(n);
    for (std::size_t k = 0; k < rules.size(); ++k) {
      const proto::Rule& rule = rules[k];
      proto::EnforceBatch single;
      single.cycle_id = cycle_;
      single.rules.push_back(rule);
      const std::size_t sz = enforce_frame_size(single);
      node.host->send(
          sz,
          [this, rule, node32, slot = static_cast<std::uint32_t>(k),
           c = cycle_] {
            apply_rule_and_ack(rule, nodes_[node32].host.get(),
                               [this, node32, slot, c](Nanos applied_at) {
                                 accept_stage_ack(node32, slot, c, applied_at);
                               });
          },
          prof_.cpu_route_per_rule);
    }
  }

  /// At the stage: apply `rule` (real logic), then send the ack back to
  /// `receiver`, which runs `on_ack` — passing the virtual instant the
  /// stage applied the rule, for `disseminate` attribution — after its
  /// receive cost. Under a fault plan a down/partitioned stage neither
  /// applies nor acks, and the ack is subject to the kEnforceAck message
  /// fate — silent stages surface as missing acks and the phase deadline
  /// closes the phase degraded.
  template <typename OnAck>
  void apply_rule_and_ack(const proto::Rule& rule, SimHost* receiver,
                          OnAck on_ack) {
    const std::size_t idx = rule.stage_id.value();
    assert(idx < stages_.size());
    if (fault_ != nullptr && !stage_reachable(idx, eng_.now())) return;
    stages_[idx].apply(rule);
    const Nanos applied_at = eng_.now();
    proto::EnforceAck ack;
    ack.cycle_id = cycle_;
    ack.applied = 1;
    const std::size_t sz = frame_size(ack);
    Nanos latency = stage_latency(idx, eng_.now());
    std::size_t copies = 1;
    if (fault_ != nullptr &&
        !reply_fate(fault::MessageKind::kEnforceAck, idx, latency, copies)) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      eng_.schedule_in(latency, [receiver, sz, applied_at, on_ack] {
        receiver->receive(sz, [applied_at, on_ack] { on_ack(applied_at); });
      });
    }
  }

  void accept_stage_ack(std::size_t n, std::size_t slot, std::uint64_t c,
                        Nanos applied_at) {
    Node& node = nodes_[n];
    // The duplicate copy pays receive cost but is refused, as is an ack
    // after the deadline closed.
    if (!node.enforce.accept(slot, c)) return;
    node.apply_max = std::max(node.apply_max, applied_at);
    ++node.applied;
    if (node.enforce.complete()) close_enforce(n);
  }

  /// Node `n` closed its enforce phase, on the last ack or its deadline.
  void close_enforce(std::size_t n) {
    if (fault_ != nullptr) {
      PhaseGate& gate = nodes_[n].enforce;
      gate.close();
      if (n == kRoot && gate.missing() > 0) cycle_degraded_ = true;
    }
    finish_enforce(n);
  }

  void finish_enforce(std::size_t n) {
    if (n == kRoot) {
      finish_cycle();
    } else if (nodes_[n].policy.coordinated) {
      // A peer sends no ack; the root just counts it. Peers apply rules
      // on their own timelines, so the cycle has no disseminate segment.
      accept_ack(n, nodes_[n].applied, Nanos{-1}, /*short_acked=*/false,
                 cycle_);
    } else {
      ack_up(n);
    }
  }

  /// Node `n` acks its parent: how many rules its subtree applied and
  /// the latest instant one was applied. Short when it closed with acks
  /// outstanding, which marks the cycle degraded.
  void ack_up(std::size_t n) {
    Node& node = nodes_[n];
    proto::EnforceAck merged;
    merged.cycle_id = cycle_;
    merged.applied = node.applied;
    const std::size_t sz = frame_size(merged);
    const bool short_acked = node.enforce.missing() > 0;
    send_up(n, fault::MessageKind::kAggregatorAck, sz,
            [this, n, short_acked, applied = node.applied,
             apply_max = node.apply_max, c = cycle_] {
              accept_ack(n, applied, apply_max, short_acked, c);
            });
  }

  /// At the parent of node `n`: take its merged ack.
  void accept_ack(std::size_t n, std::uint32_t applied, Nanos apply_max,
                  bool short_acked, std::uint64_t c) {
    const std::size_t p = nodes_[n].parent;
    const std::size_t pos = nodes_[n].child_pos;
    Node& parent = nodes_[p];
    if (!parent.enforce.accept(pos, c)) return;  // duplicate or straggler
    if (short_acked) cycle_degraded_ = true;
    parent.applied += applied;
    parent.apply_max = std::max(parent.apply_max, apply_max);
    if (parent.enforce.complete()) {
      close_enforce(p);
      return;
    }
    if (parent.policy.serial_fanout && pos + 1 < parent.children.size()) {
      send_enforce(p, pos + 1);
    }
  }

  // -- Phase deadlines -------------------------------------------------------

  enum class Phase : std::uint8_t { kCollect, kEnforce };

  /// Under a fault plan, raise the guard of `phase` at node `n` for the
  /// current cycle and arm its deadline; fault-free gates only count. A
  /// controller serves one cycle at a time: arming either phase restamps
  /// the other, so an older cycle's stragglers and deadlines are refused
  /// there too.
  void guard(std::size_t n, Phase phase) {
    if (fault_ == nullptr) return;
    Node& node = nodes_[n];
    node.collect.restamp(cycle_);
    node.enforce.restamp(cycle_);
    (phase == Phase::kCollect ? node.collect : node.enforce).arm(cycle_);
    arm_deadline(n, phase, cycle_);
  }

  void arm_deadline(std::size_t n, Phase phase, std::uint64_t c) {
    eng_.schedule_in(fault_->phase_timeout(),
                     [this, n, phase, c] { on_deadline(n, phase, c); });
  }

  /// The one deadline rule, for both phases at every node.
  void on_deadline(std::size_t n, Phase phase, std::uint64_t c) {
    PhaseGate& gate =
        phase == Phase::kCollect ? nodes_[n].collect : nodes_[n].enforce;
    switch (gate.on_deadline(c)) {
      case PhaseGate::Deadline::kIgnore:
        return;
      case PhaseGate::Deadline::kRearm:
        arm_deadline(n, phase, c);
        return;
      case PhaseGate::Deadline::kClose:
        if (phase == Phase::kCollect) {
          close_collect(n);
        } else {
          close_enforce(n);
        }
        return;
    }
  }

  /// Whether `node` is up now. Aggregators are the controllers a fault
  /// plan can crash; a crash counts as one injected fault.
  [[nodiscard]] bool node_up(const Node& node) {
    if (node.core == nullptr || fault_->aggregator_up(node.index, eng_.now())) {
      return true;
    }
    ++faults_injected_;
    return false;
  }
  // ------------------------------------------------------------------

  void finish_cycle() {
    Node& root = nodes_[kRoot];
    core::PhaseBreakdown breakdown;
    breakdown.collect = collect_end_ - cycle_start_;
    breakdown.compute = compute_end_ - collect_end_;
    breakdown.enforce = eng_.now() - compute_end_;
    // Attributed sub-segments (see CycleStats): `aggregate` is the tail
    // of collect after the last aggregator closed its local sub-collect,
    // `disseminate` the head of enforce until the last stage applied a
    // rule. Nanos{-1} = no boundary observed → sub-segment stays 0.
    if (root.close_max >= Nanos{0}) {
      breakdown.aggregate =
          std::clamp(collect_end_ - root.close_max, Nanos{0}, breakdown.collect);
    }
    if (root.apply_max >= Nanos{0}) {
      breakdown.disseminate = std::clamp(root.apply_max - compute_end_,
                                         Nanos{0}, breakdown.enforce);
    }
    const bool degraded = cycle_degraded_ || root.stale > 0;
    stats_.record(cycle_, breakdown, fault_ != nullptr && degraded, root.stale);
    if (fault_ != nullptr) {
      if (degraded) stats_.record_degraded(root.stale);
      for (const Nanos r : root.recoveries) stats_.record_recovery(r);
      cycle_degraded_ = false;
      root.stale = 0;
      root.recoveries.clear();
    }
    last_cycle_end_ = eng_.now();
    trace_cycle(breakdown);

    const bool hit_cycle_cap =
        cfg_.max_cycles != 0 && stats_.cycles() >= cfg_.max_cycles;
    if (hit_cycle_cap || eng_.now() >= cfg_.duration) {
      done_ = true;
      return;
    }
    if (cfg_.cycle_period > Nanos{0}) {
      const Nanos next = cycle_start_ + cfg_.cycle_period;
      if (next > eng_.now()) {
        eng_.schedule_at(next, [this] { start_cycle(); });
        return;
      }
    }
    start_cycle();  // stress workload: no idle gap between cycles
  }

  /// One span per phase plus an enclosing cycle span, in virtual time on
  /// the global controller's track. Phase boundaries are exactly the
  /// instants CycleStats measured, so the trace and the histograms agree.
  /// Span ids derive from (cycle, track, name) and nest causally: cycle → {collect → aggregate, compute,
  /// enforce → disseminate}. The same spans land in the flight recorder
  /// ring when one is attached.
  void trace_cycle(const core::PhaseBreakdown& breakdown) {
    if (cfg_.tracer == nullptr && cfg_.flight == nullptr) return;
    const std::uint64_t trace = cycle_;
    const auto root_id = telemetry::derive_span_id(trace, 0, "cycle");
    const auto collect_id = telemetry::derive_span_id(trace, 0, "collect");
    const auto enforce_id = telemetry::derive_span_id(trace, 0, "enforce");
    const auto make = [&](const char* name, telemetry::SpanPhase phase,
                          std::uint64_t parent, Nanos start, Nanos duration) {
      telemetry::Span span;
      span.name = name;
      span.category = "cycle";
      span.track = 0;
      span.cycle = cycle_;
      span.start = start;
      span.duration = duration;
      span.trace_id = trace;
      span.span_id = telemetry::derive_span_id(trace, 0, name);
      span.parent_span = parent;
      span.phase = phase;
      return span;
    };
    const auto emit = [&](telemetry::Span span) {
      if (cfg_.flight != nullptr) cfg_.flight->record(span);
      if (cfg_.tracer != nullptr) cfg_.tracer->record(std::move(span));
    };
    telemetry::Span cycle_span =
        make("cycle", telemetry::SpanPhase::kNone, 0, cycle_start_,
             eng_.now() - cycle_start_);
    cycle_span.detail = "stages=" + std::to_string(cfg_.num_stages);
    emit(std::move(cycle_span));
    emit(make("collect", telemetry::SpanPhase::kCollect, root_id, cycle_start_,
              breakdown.collect));
    emit(make("aggregate", telemetry::SpanPhase::kAggregate, collect_id,
              collect_end_ - breakdown.aggregate, breakdown.aggregate));
    emit(make("compute", telemetry::SpanPhase::kCompute, root_id, collect_end_,
              breakdown.compute));
    emit(make("disseminate", telemetry::SpanPhase::kDisseminate, enforce_id,
              compute_end_, breakdown.disseminate));
    emit(make("enforce", telemetry::SpanPhase::kEnforce, root_id, compute_end_,
              breakdown.enforce));
  }

  /// Run events until the simulation ends, sampling the PFS load factor
  /// on a fixed simulated-time grid, independent of cycle boundaries
  /// (sampling only at enforcement instants would alias: limits are
  /// freshest exactly then). A sample at instant t runs before any event
  /// at or after t, and run_before leaves the clock at the last executed
  /// event, so sampling never moves it. Sampling stops at the first
  /// sample instant reached after the run is done.
  void run_events() {
    constexpr Nanos kNever{std::numeric_limits<std::int64_t>::max()};
    Nanos next_sample = kUtilizationSampleInterval;
    bool sampling = true;
    for (;;) {
      eng_.run_before(sampling ? next_sample : kNever);
      if (!sampling) break;
      // Nothing left to run before next_sample.
      if (done_) {
        sampling = false;
        continue;
      }
      sample_utilization(next_sample);
      next_sample += kUtilizationSampleInterval;
    }
  }

  /// PFS load factor at `now`: what each stage would submit (its demand
  /// clipped by its enforced limit), summed, relative to the budget.
  void sample_utilization(Nanos now) {
    double data = 0;
    double meta = 0;
    for (const auto& stage : stages_) {
      const double dd = stage.demand(stage::Dimension::kData, now);
      const double dl = stage.limit(stage::Dimension::kData);
      data += dl < 0 ? dd : std::min(dd, dl);
      const double md = stage.demand(stage::Dimension::kMeta, now);
      const double ml = stage.limit(stage::Dimension::kMeta);
      meta += ml < 0 ? md : std::min(md, ml);
    }
    if (cfg_.budgets.data_iops > 0) {
      data_utilization_.add(data / cfg_.budgets.data_iops);
    }
    if (cfg_.budgets.meta_iops > 0) {
      meta_utilization_.add(meta / cfg_.budgets.meta_iops);
    }
  }

  ExperimentResult finalize() {
    ExperimentResult result;
    result.stats = stats_;
    result.cycles = stats_.cycles();
    result.elapsed = last_cycle_end_;
    result.events_executed = eng_.executed();
    if (events_gauge_ != nullptr) {
      events_gauge_->set(static_cast<double>(eng_.executed()));
      vtime_gauge_->set(to_seconds(eng_.now()));
    }
    result.mean_data_utilization = data_utilization_.mean();
    result.mean_meta_utilization = meta_utilization_.mean();
    result.collect_wire_bytes = collect_wire_bytes_;
    result.collect_wire_bytes_full = collect_wire_bytes_full_;
    result.collect_frames_full = collect_frames_full_;
    result.collect_frames_delta = collect_frames_delta_;
    if (fault_ != nullptr) {
      result.degraded_cycles = stats_.degraded_cycles();
      result.stale_stage_reports = stats_.stale_stages();
      result.mean_recovery_ms = stats_.mean_recovery_ms();
      result.faults_injected = faults_injected_;
      if (cfg_.metrics != nullptr) {
        telemetry::Labels labels{{"component", "sim"}};
        if (!cfg_.telemetry_label.empty()) {
          labels.emplace_back("configuration", cfg_.telemetry_label);
        }
        cfg_.metrics->counter("sds_fault_injected_total", labels)
            ->add(faults_injected_);
      }
    }
    result.final_data_limits.reserve(stages_.size());
    result.final_meta_limits.reserve(stages_.size());
    for (const auto& stage : stages_) {
      const double dl = stage.limit(stage::Dimension::kData);
      const double ml = stage.limit(stage::Dimension::kMeta);
      result.final_data_limits.push_back(dl);
      result.final_meta_limits.push_back(ml);
      if (dl >= 0) result.final_data_limit_sum += dl;
      if (ml >= 0) result.final_meta_limit_sum += ml;
    }

    const double elapsed_s = std::max(to_seconds(last_cycle_end_), 1e-9);
    const auto usage = [&](const SimHost& host, double mem_bytes,
                           double cpu_scale) {
      ControllerUsage u;
      u.cpu_percent =
          to_seconds(host.busy()) / elapsed_s * cpu_scale;
      u.memory_gb = mem_bytes / 1e9;
      u.transmitted_mbps =
          static_cast<double>(host.bytes_tx()) / elapsed_s / 1e6;
      u.received_mbps = static_cast<double>(host.bytes_rx()) / elapsed_s / 1e6;
      return u;
    };

    // Mean usage over one tier of controllers.
    const auto mean = [](const std::vector<ControllerUsage>& tier) {
      ControllerUsage sum;
      for (const ControllerUsage& u : tier) {
        sum.cpu_percent += u.cpu_percent;
        sum.memory_gb += u.memory_gb;
        sum.transmitted_mbps += u.transmitted_mbps;
        sum.received_mbps += u.received_mbps;
      }
      const double k = static_cast<double>(tier.size());
      return ControllerUsage{sum.cpu_percent / k, sum.memory_gb / k,
                             sum.transmitted_mbps / k, sum.received_mbps / k};
    };
    const double n = static_cast<double>(cfg_.num_stages);
    std::vector<ControllerUsage> tier;
    const Node& root = nodes_[kRoot];
    if (root.policy.coordinated) {
      // Each peer looks like a small flat controller plus K-1 peer links.
      const double k = static_cast<double>(root.children.size());
      for (const std::size_t id : root.children) {
        const Node& peer = nodes_[id];
        const double mem =
            prof_.mem_base_bytes +
            static_cast<double>(peer.stage_count()) *
                (prof_.mem_per_conn_bytes + prof_.mem_per_stage_state_bytes) +
            (k - 1) * prof_.mem_per_conn_bytes;
        tier.push_back(usage(*peer.host, mem, prof_.cpu_percent_scale));
      }
      result.global = tier.front();
      result.aggregator = mean(tier);
      return result;
    }
    if (root.children.empty()) {
      const double mem = prof_.mem_base_bytes +
                         n * (prof_.mem_per_conn_bytes +
                              prof_.mem_per_stage_state_bytes);
      result.global = usage(*root.host, mem, prof_.cpu_percent_scale);
      return result;
    }
    const double mem =
        prof_.mem_base_bytes +
        static_cast<double>(cfg_.num_aggregators) * prof_.mem_per_conn_bytes +
        n * (prof_.mem_per_stage_state_bytes + prof_.mem_per_stage_hier_bytes);
    result.global = usage(*root.host, mem, prof_.cpu_percent_scale);
    std::vector<ControllerUsage> supers;
    for (std::size_t id = 1; id < nodes_.size(); ++id) {
      const Node& node = nodes_[id];
      if (node.core != nullptr) {
        const double agg_mem =
            prof_.mem_agg_base_bytes +
            static_cast<double>(node.stage_count()) * prof_.mem_agg_per_stage_bytes;
        tier.push_back(usage(*node.host, agg_mem, prof_.agg_cpu_percent_scale));
      } else {
        const double super_mem =
            prof_.mem_agg_base_bytes +
            static_cast<double>(node.children.size()) * prof_.mem_per_conn_bytes;
        supers.push_back(usage(*node.host, super_mem, prof_.agg_cpu_percent_scale));
      }
    }
    result.aggregator = mean(tier);
    if (!supers.empty()) result.super_aggregator = mean(supers);
    return result;
  }

  static constexpr std::size_t kRoot = 0;

  const ExperimentConfig& cfg_;
  const FronteraProfile& prof_;
  Engine eng_;
  core::GlobalControllerCore global_;
  /// Columnar store backing the flat collect path (hierarchical runs use
  /// each AggregatorCore's own store instead).
  core::MetricsStore store_;
  /// Store path enabled for this run (cfg_.store_collect minus the modes
  /// that keep the batch pipeline; resolved in execute()).
  bool store_collect_ = false;
  bool delta_collect_ = false;
  /// The control tree: the root, aggregator or peer a at 1 + a (its
  /// tracer track), then the super-aggregators. Sized once; closures
  /// hold ids.
  std::vector<Node> nodes_;
  std::vector<stage::VirtualStage> stages_;

  // Per-cycle state.
  std::uint64_t cycle_ = 0;
  Nanos cycle_start_{0};
  Nanos collect_end_{0};
  Nanos compute_end_{0};
  Nanos last_cycle_end_{0};
  std::size_t collect_req_size_ = 0;
  std::vector<proto::StageMetrics> passthrough_metrics_;
  /// Aggregator-id-indexed rule batches, and the concatenation of one
  /// interior node's subtree (reused scratch).
  std::vector<proto::EnforceBatch> enforce_batches_;
  proto::EnforceBatch combined_batch_;
  std::vector<proto::BudgetLease> leases_;
  core::ComputeResult compute_result_;
  /// What enforce disseminates: &compute_result_ on the batch paths,
  /// GlobalControllerCore's persistent store-backed result on the
  /// incremental path. Set by compute() before every enforce.
  const core::ComputeResult* compute_view_ = nullptr;
  /// Per-stage previous report + first-report flag for delta framing.
  std::vector<proto::StageMetrics> last_report_;
  std::vector<char> has_report_;
  /// Collect wire accounting over accepted reports.
  std::uint64_t collect_wire_bytes_ = 0;
  std::uint64_t collect_wire_bytes_full_ = 0;
  std::uint64_t collect_frames_full_ = 0;
  std::uint64_t collect_frames_delta_ = 0;
  core::CycleStats stats_;
  RunningStats data_utilization_;
  RunningStats meta_utilization_;
  telemetry::Gauge* events_gauge_ = nullptr;
  telemetry::Gauge* vtime_gauge_ = nullptr;
  bool done_ = false;

  // -- Fault-injection state (unallocated without a plan) ---------------
  std::unique_ptr<fault::CompiledPlan> fault_;
  std::uint64_t faults_injected_ = 0;
  /// Virtual time of the last accepted collect reply per stage, for
  /// recovery accounting. Nanos{-1} = never.
  std::vector<Nanos> last_fresh_at_;
  /// Received-only metrics, compacted for degraded flat computes.
  std::vector<proto::StageMetrics> flat_scratch_;
  /// Set when a phase closed with replies outstanding this cycle;
  /// recorded and reset in finish_cycle() (stale counts live on the
  /// root node).
  bool cycle_degraded_ = false;
};

}  // namespace

Result<ExperimentResult> run_experiment(const ExperimentConfig& config) {
  Run run(config);
  SDS_RETURN_IF_ERROR(run.validate());
  return run.execute();
}

}  // namespace sds::sim
