#include "sim/experiment.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/coordinated.h"
#include "core/global.h"
#include "core/metrics_store.h"
#include "policy/incremental_psfa.h"
#include "sim/engine.h"
#include "sim/host.h"

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
/// Cross-cycle aggregates (peer summaries, aggregator reports,
/// passthrough batches) are id-indexed rather than accumulated in
/// arrival order, so their floating-point summation order is fixed by
/// the topology and the recorded outputs stay bit-identical.
class Run {
 public:
  explicit Run(const ExperimentConfig& config)
      : cfg_(config),
        prof_(config.profile),
        global_host_(eng_, prof_, "global"),
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
      } else if (cfg_.coordinated_peers == 0) {
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

    if (coordinated()) {
      const std::size_t n = cfg_.num_stages;
      const std::size_t k = cfg_.coordinated_peers;
      peers_.reserve(k);
      for (std::size_t p = 0; p < k; ++p) {
        auto peer = std::make_unique<Peer>();
        peer->core = std::make_unique<core::CoordinatedControllerCore>(
            ControllerId{static_cast<std::uint32_t>(p)}, cfg_.budgets);
        peer->host = std::make_unique<SimHost>(eng_, prof_,
                                               "peer" + std::to_string(p));
        const std::size_t begin = p * n / k;
        const std::size_t end = (p + 1) * n / k;
        for (std::size_t i = begin; i < end; ++i) {
          peer->stage_indices.push_back(i);
        }
        peers_.push_back(std::move(peer));
      }
      return;
    }

    if (!flat()) {
      aggs_.reserve(cfg_.num_aggregators);
      const std::size_t n = cfg_.num_stages;
      const std::size_t a_count = cfg_.num_aggregators;
      for (std::size_t a = 0; a < a_count; ++a) {
        auto agg = std::make_unique<Agg>();
        agg->core = std::make_unique<core::AggregatorCore>(
            core::AggregatorOptions{ControllerId{static_cast<std::uint32_t>(a)},
                                    cfg_.preaggregate,
                                    /*include_digests=*/true,
                                    cfg_.activity_threshold});
        agg->host = std::make_unique<SimHost>(eng_, prof_,
                                              "agg" + std::to_string(a));
        const std::size_t begin = a * n / a_count;
        const std::size_t end = (a + 1) * n / a_count;
        for (std::size_t i = begin; i < end; ++i) {
          agg->stage_indices.push_back(i);
        }
        aggs_.push_back(std::move(agg));
      }

      if (deep()) {
        const std::size_t s_count = cfg_.num_super_aggregators;
        supers_.reserve(s_count);
        for (std::size_t s = 0; s < s_count; ++s) {
          auto super = std::make_unique<Super>();
          super->host = std::make_unique<SimHost>(
              eng_, prof_, "super" + std::to_string(s));
          const std::size_t begin = s * a_count / s_count;
          const std::size_t end = (s + 1) * a_count / s_count;
          for (std::size_t a = begin; a < end; ++a) {
            super->children.push_back(a);
            aggs_[a]->parent = static_cast<int>(s);
            aggs_[a]->child_pos = super->children.size() - 1;
          }
          supers_.push_back(std::move(super));
        }
      }
    }

    // Register every stage with the controllers that manage it.
    for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
      const ControllerId via =
          flat() ? ControllerId::invalid()
                 : ControllerId{static_cast<std::uint32_t>(agg_of(i))};
      const Status added = global_.registry().add(
          {stages_[i].info(), ConnId{i}, via});
      assert(added.is_ok());
      (void)added;
      if (!flat()) {
        const Status agg_added = aggs_[agg_of(i)]->core->registry().add(
            {stages_[i].info(), ConnId{i}, ControllerId::invalid()});
        assert(agg_added.is_ok());
        (void)agg_added;
      }
    }

    // Bind every stage to its controller's columnar store. Binding in
    // ascending stage order makes the slot index equal the stage's index
    // (global for flat, subtree-local for hierarchical), which the
    // collect closures rely on to skip the id lookup.
    if (store_collect_) {
      if (flat()) {
        store_.reset(cfg_.num_stages);
        for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
          const std::uint32_t slot = store_.bind(stages_[i].info().stage_id,
                                                 stages_[i].info().job_id);
          assert(slot == static_cast<std::uint32_t>(i));
          (void)slot;
        }
      } else {
        for (const auto& agg : aggs_) {
          core::MetricsStore& store = agg->core->store();
          store.reset(agg->stage_indices.size());
          for (const std::size_t idx : agg->stage_indices) {
            store.bind(stages_[idx].info().stage_id,
                       stages_[idx].info().job_id);
          }
        }
      }
    }
    if (delta_collect_) {
      last_report_.assign(cfg_.num_stages, {});
      has_report_.assign(cfg_.num_stages, 0);
    }
  }

  [[nodiscard]] std::size_t agg_of(std::size_t stage_index) const {
    // Inverse of the contiguous block partition above.
    const std::size_t n = cfg_.num_stages;
    const std::size_t a_count = cfg_.num_aggregators;
    std::size_t a = stage_index * a_count / n;
    while (a + 1 < a_count && stage_index >= (a + 1) * n / a_count) ++a;
    while (a > 0 && stage_index < a * n / a_count) --a;
    return a;
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
    agg_close_max_ = Nanos{-1};
    rule_apply_max_ = Nanos{-1};
    collect_req_size_ = frame_size(req);
    cycle_in_flight_ = true;
    if (coordinated()) {
      start_cycle_coordinated();
      return;
    }
    after_sync([this] {
      if (flat()) {
        start_collect_flat();
      } else {
        start_collect_hier();
      }
    });
  }

  /// Runs whenever the event queue drains: joins finished coordinated
  /// cycles and launches deferred cycle starts. Returns true iff it
  /// scheduled new work.
  bool on_queue_drained() {
    if (!coordinated()) return false;
    if (cycle_in_flight_) {
      finish_cycle_coordinated();
      return true;
    }
    if (next_cycle_pending_ && !done_) {
      next_cycle_pending_ = false;
      eng_.advance_to(next_cycle_at_);
      start_cycle();
      return true;
    }
    return false;
  }

  // -- Coordinated flat design (paper §VI future work #1) ----------------
  //
  // Phase accounting: peers pipeline independently, so phase boundaries
  // are taken as the time the LAST peer passes each stage — collect ends
  // when every peer holds all K summaries, compute when every peer has
  // computed, enforce when the last ack lands. Each peer records its own
  // completion instants, and on_queue_drained() joins them once the
  // cycle's last event has run.

  void start_cycle_coordinated() {
    for (auto& peer : peers_) {
      peer->collected.clear();
      peer->pending_metrics = peer->stage_indices.size();
      peer->summaries.assign(peers_.size(), {});
      peer->summaries_received = 0;
      peer->pending_acks = 0;
      peer->exchange_done_at = Nanos{0};
      peer->compute_done_at = Nanos{0};
      peer->enforce_done_at = Nanos{0};
    }
    // All peers leave the synchronization wait at the same instant.
    const Nanos at = eng_.now() + prof_.phase_sync_overhead;
    for (std::size_t p = 0; p < peers_.size(); ++p) {
      eng_.schedule_at(at, [this, p] { peer_collect_fanout(p); });
    }
  }

  void peer_collect_fanout(std::size_t p) {
    const std::vector<std::size_t>& indices = peers_[p]->stage_indices;
    peers_[p]->host->broadcast(indices.size(), collect_req_size_, [&](std::size_t i) {
      const std::size_t idx = indices[i];
      return [this, p, idx] {
        const proto::StageMetrics m = stages_[idx].collect(cycle_, eng_.now());
        const std::size_t sz = frame_size(m);
        eng_.schedule_in(prof_.stage_service + prof_.wire_latency,
                         [this, p, m, sz] {
                           peers_[p]->host->receive(sz, [this, p, m] {
                             peers_[p]->collected.push_back(m);
                             if (--peers_[p]->pending_metrics == 0) {
                               peer_broadcast_summary(p);
                             }
                           });
                         });
      };
    });
  }

  void peer_broadcast_summary(std::size_t p) {
    Peer& peer = *peers_[p];
    const proto::AggregatedMetrics summary =
        peer.core->summarize(cycle_, peer.collected);
    const Nanos cost =
        scaled(prof_.cpu_agg_merge_per_stage, peer.stage_indices.size());
    const std::size_t sz = frame_size(summary);
    peer.host->run(cost, [this, p, summary, sz] {
      peer_accept_summary(p, p, summary);  // own summary, no wire
      peers_[p]->host->broadcast(
          peers_.size() - 1, sz, [&](std::size_t i) {
            const std::size_t q = i < p ? i : i + 1;  // skip self
            return [this, q, p, sz, summary] {
              peers_[q]->host->receive(sz, [this, q, p, summary] {
                peer_accept_summary(q, p, summary);
              });
            };
          });
    });
  }

  void peer_accept_summary(std::size_t p, std::size_t src,
                           const proto::AggregatedMetrics& summary) {
    Peer& peer = *peers_[p];
    peer.summaries[src] = summary;
    if (++peer.summaries_received < peers_.size()) return;
    peer.exchange_done_at = eng_.now();
    peer_compute(p);
  }

  void peer_compute(std::size_t p) {
    Peer& peer = *peers_[p];
    // Every peer runs the full global PSFA (the redundancy that buys
    // central-controller-free global visibility), then splits only its
    // own subtree.
    auto rules = std::make_shared<std::vector<proto::Rule>>(
        peer.core->compute_own_rules(cycle_, peer.summaries, peer.collected));
    const Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs()) +
                       scaled(prof_.cpu_split_per_stage,
                              peer.stage_indices.size());
    peer.host->run(cost, [this, p, rules] {
      peers_[p]->compute_done_at = eng_.now();
      peer_enforce(p, *rules);
    });
  }

  void peer_enforce(std::size_t p, const std::vector<proto::Rule>& rules) {
    Peer& peer = *peers_[p];
    peer.pending_acks = rules.size();
    if (rules.empty()) {
      peer_enforce_done(p);
      return;
    }
    for (const auto& rule : rules) {
      proto::EnforceBatch single;
      single.cycle_id = cycle_;
      single.rules.push_back(rule);
      const std::size_t sz = enforce_frame_size(single);
      peer.host->send(
          sz,
          [this, p, rule] {
            apply_rule_and_ack(rule, peers_[p]->host.get(), [this, p](Nanos) {
              if (--peers_[p]->pending_acks == 0) peer_enforce_done(p);
            });
          },
          prof_.cpu_route_per_rule);
    }
  }

  void peer_enforce_done(std::size_t p) {
    peers_[p]->enforce_done_at = eng_.now();
  }

  /// Joins a finished coordinated cycle once the queue drains: the
  /// phase boundaries are the maxima of the per-peer completion
  /// instants, exactly the "last peer past each stage" definition.
  void finish_cycle_coordinated() {
    Nanos exchange{0};
    Nanos compute{0};
    Nanos enforce{0};
    for (const auto& peer : peers_) {
      exchange = std::max(exchange, peer->exchange_done_at);
      compute = std::max(compute, peer->compute_done_at);
      enforce = std::max(enforce, peer->enforce_done_at);
    }
    collect_end_ = exchange;
    compute_end_ = compute;
    eng_.advance_to(enforce);
    finish_cycle();
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

  // -- Flat design -----------------------------------------------------

  void start_collect_flat() {
    // The store path folds reports in place; the scratch vector is only
    // the legacy/fault pipeline's.
    if (!store_collect_) flat_metrics_.assign(cfg_.num_stages, {});
    flat_pending_ = cfg_.num_stages;
    if (fault_ != nullptr) {
      collect_open_ = true;
      collect_extensions_ = 0;
      collect_seen_.assign(cfg_.num_stages, 0);
      eng_.schedule_in(fault_->phase_timeout(), [this, c = cycle_] {
        on_flat_collect_deadline(c);
      });
    }
    global_host_.broadcast(cfg_.num_stages, collect_req_size_,
                           [this](std::size_t i) {
                             return [this, i] { on_stage_collect_flat(i); };
                           });
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

  void on_stage_collect_flat(std::size_t i) {
    if (fault_ != nullptr && !stage_reachable(i, eng_.now())) return;
    const proto::StageMetrics m = stages_[i].collect(cycle_, eng_.now());
    const CollectFrame fr = frame_report(i, m);
    const std::size_t sz = fr.wire;
    Nanos latency = stage_latency(i, eng_.now());
    if (cfg_.tracer != nullptr && i == 0) {
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
        !reply_fate(fault::MessageKind::kCollectReply, i, latency, copies)) {
      return;
    }
    for (std::size_t copy = 0; copy < copies; ++copy) {
      const bool first = copy == 0;
      eng_.schedule_in(
          latency, [this, i, m, fr, sz, first, c = cycle_] {
            global_host_.receive(sz, [this, i, m, fr, first, c] {
              if (fault_ != nullptr &&
                  (!first || !collect_open_ || c != cycle_ ||
                   collect_seen_[i] != 0)) {
                return;  // duplicate or post-deadline straggler
              }
              if (fault_ != nullptr) {
                collect_seen_[i] = 1;
                note_fresh_reply(i, eng_.now(), cycle_recoveries_);
              }
              account_collect_frame(fr);
              if (store_collect_) {
                if (fr.is_delta) {
                  const core::DeltaStatus status = store_.apply_delta(
                      fr.delta, static_cast<std::uint32_t>(i));
                  assert(status == core::DeltaStatus::kApplied);
                  (void)status;
                } else {
                  store_.update_at(static_cast<std::uint32_t>(i), m);
                }
              } else {
                flat_metrics_[i] = m;
              }
              if (--flat_pending_ == 0) close_collect_flat(false);
            });
          });
    }
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

  void on_flat_collect_deadline(std::uint64_t c) {
    if (!collect_open_ || c != cycle_) return;
    const std::size_t received = cfg_.num_stages - flat_pending_;
    if (received < fault_->quorum_count(cfg_.num_stages) &&
        collect_extensions_++ < fault_->max_deadline_extensions()) {
      eng_.schedule_in(fault_->phase_timeout(),
                       [this, c] { on_flat_collect_deadline(c); });
      return;
    }
    close_collect_flat(flat_pending_ > 0);
  }

  void close_collect_flat(bool degraded) {
    if (fault_ != nullptr) {
      collect_open_ = false;
      if (degraded) {
        cycle_degraded_ = true;
        cycle_stale_ += flat_pending_;
      }
    }
    collect_end_ = eng_.now();
    compute_flat();
  }

  void compute_flat() {
    std::size_t received = cfg_.num_stages;
    if (fault_ != nullptr && flat_pending_ > 0) {
      // Compact the metrics that actually arrived: default-constructed
      // rows for silent stages would corrupt the PSFA input.
      flat_scratch_.clear();
      for (std::size_t i = 0; i < cfg_.num_stages; ++i) {
        if (collect_seen_[i] != 0) flat_scratch_.push_back(flat_metrics_[i]);
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
          flat_metrics_.data(), flat_metrics_.size()));
      compute_view_ = &compute_result_;
    }
    const Nanos cost = scaled(prof_.cpu_merge_per_stage, received) +
                       scaled(prof_.cpu_psfa_per_job, num_jobs()) +
                       scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    after_sync([this, cost] {
      global_host_.run(cost, [this] {
        compute_end_ = eng_.now();
        after_sync([this] { enforce_flat(); });
      });
    });
  }

  void enforce_flat() {
    global_acks_pending_ = compute_view_->rules.size();
    if (global_acks_pending_ == 0) {
      finish_cycle();
      return;
    }
    if (fault_ != nullptr) {
      enforce_open_ = true;
      enforce_extensions_ = 0;
      enforce_expected_ = global_acks_pending_;
      eng_.schedule_in(fault_->phase_timeout(), [this, c = cycle_] {
        on_enforce_deadline(c);
      });
    }
    for (const auto& rule : compute_view_->rules) {
      proto::EnforceBatch single;
      single.cycle_id = cycle_;
      single.rules.push_back(rule);
      const std::size_t sz = enforce_frame_size(single);
      global_host_.send(
          sz,
          [this, rule, c = cycle_] {
            apply_rule_and_ack(rule, &global_host_, [this, c](Nanos at) {
              on_global_direct_ack(c, at);
            });
          },
          prof_.cpu_route_per_rule);
    }
  }

  void on_global_direct_ack(std::uint64_t c, Nanos applied_at) {
    if (fault_ != nullptr && (!enforce_open_ || c != cycle_)) return;
    rule_apply_max_ = std::max(rule_apply_max_, applied_at);
    if (--global_acks_pending_ == 0) {
      enforce_open_ = false;
      finish_cycle();
    }
  }

  void on_enforce_deadline(std::uint64_t c) {
    if (!enforce_open_ || c != cycle_) return;
    const std::size_t acked = enforce_expected_ - global_acks_pending_;
    if (acked < fault_->quorum_count(enforce_expected_) &&
        enforce_extensions_++ < fault_->max_deadline_extensions()) {
      eng_.schedule_in(fault_->phase_timeout(),
                       [this, c] { on_enforce_deadline(c); });
      return;
    }
    enforce_open_ = false;
    cycle_degraded_ = true;  // closed with acks outstanding
    finish_cycle();
  }

  /// At the stage: apply `rule` (real logic), then send the ack back to
  /// `receiver` which runs `done` — passing the virtual instant the
  /// stage applied the rule, for `disseminate` attribution — after its
  /// receive cost. Under a fault plan a down/partitioned stage neither applies
  /// nor acks, and the ack is subject to the kEnforceAck message fate —
  /// silent stages surface as missing acks and the phase deadline
  /// closes the cycle degraded.
  void apply_rule_and_ack(const proto::Rule& rule, SimHost* receiver,
                          std::function<void(Nanos)> done) {
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
    auto shared_done =
        std::make_shared<std::function<void(Nanos)>>(std::move(done));
    for (std::size_t copy = 0; copy < copies; ++copy) {
      const bool first = copy == 0;
      eng_.schedule_in(
          latency, [receiver, sz, first, applied_at, shared_done] {
            receiver->receive(sz, [first, applied_at, shared_done] {
              // The duplicate copy pays receive cost but is deduplicated.
              if (first) (*shared_done)(applied_at);
            });
          });
    }
  }

  // -- Hierarchical design ----------------------------------------------

  void start_collect_hier() {
    passthrough_metrics_.clear();
    for (auto& agg : aggs_) {
      agg->collected.clear();
      agg->pending_metrics = agg->stage_indices.size();
    }
    serial_cursor_ = 0;
    if (deep()) {
      agg_reports_.assign(supers_.size(), {});
      reports_pending_ = supers_.size();
      for (auto& super : supers_) {
        super->child_reports.assign(super->children.size(), {});
        super->pending_reports = super->children.size();
        super->child_close_max = Nanos{-1};
        super->acks_applied = 0;
        super->pending_acks = 0;
      }
      global_host_.broadcast(
          supers_.size(), collect_req_size_, [this](std::size_t s) {
            return [this, s] {
              supers_[s]->host->receive(collect_req_size_,
                                        [this, s] { super_collect_fanout(s); });
            };
          });
      return;
    }
    agg_reports_.assign(aggs_.size(), {});
    passthrough_batches_.assign(aggs_.size(), {});
    reports_pending_ = aggs_.size();
    if (fault_ != nullptr) {
      report_open_ = true;
      report_extensions_ = 0;
      report_seen_.assign(aggs_.size(), 0);
      eng_.schedule_in(fault_->phase_timeout(),
                       [this, c = cycle_] { on_report_deadline(c); });
    }
    if (cfg_.parallel_fanout) {
      global_host_.broadcast(
          aggs_.size(), collect_req_size_, [this](std::size_t a) {
            return [this, a] {
              aggs_[a]->host->receive(collect_req_size_,
                                      [this, a] { agg_collect_fanout(a); });
            };
          });
    } else {
      send_collect_to_agg(0);
    }
  }

  // -- Third level (super-aggregators) -----------------------------------

  void super_collect_fanout(std::size_t s) {
    const std::vector<std::size_t>& children = supers_[s]->children;
    supers_[s]->host->broadcast(
        children.size(), collect_req_size_, [&](std::size_t i) {
          const std::size_t a = children[i];
          return [this, a] {
            aggs_[a]->host->receive(collect_req_size_,
                                    [this, a] { agg_collect_fanout(a); });
          };
        });
  }

  void super_accept_report(std::size_t s, std::size_t pos,
                           const proto::AggregatedMetrics& report,
                           Nanos child_close) {
    Super& super = *supers_[s];
    super.child_reports[pos] = report;
    super.child_close_max = std::max(super.child_close_max, child_close);
    if (--super.pending_reports > 0) return;

    // Merge the children's summaries (job rows merged, digests
    // concatenated so the global controller keeps per-stage visibility).
    // child_reports is child-position-indexed, so the merge input order
    // is canonical regardless of arrival order.
    proto::AggregatedMetrics merged;
    merged.cycle_id = cycle_;
    merged.from = ControllerId{
        static_cast<std::uint32_t>(0x40000000u + s)};  // super-tier ids
    std::unordered_map<JobId, std::size_t> index;
    std::size_t digest_count = 0;
    for (const auto& child : super.child_reports) {
      merged.total_stages += child.total_stages;
      digest_count += child.digests.size();
      for (const auto& job : child.jobs) {
        const auto [it, inserted] = index.try_emplace(job.job_id, merged.jobs.size());
        if (inserted) {
          merged.jobs.push_back(job);
        } else {
          auto& row = merged.jobs[it->second];
          row.data_iops += job.data_iops;
          row.meta_iops += job.meta_iops;
          row.stage_count += job.stage_count;
        }
      }
    }
    merged.digests.reserve(digest_count);
    for (const auto& child : super.child_reports) {
      merged.digests.insert(merged.digests.end(), child.digests.begin(),
                            child.digests.end());
    }
    const Nanos cost = scaled(prof_.cpu_relay_per_stage, digest_count);
    const std::size_t sz = frame_size(merged);
    const Nanos close_max = super.child_close_max;
    super.host->run(cost, [this, s, merged, sz, close_max] {
      supers_[s]->host->send(sz, [this, s, merged, sz, close_max] {
        global_host_.receive(sz, [this, s, merged, close_max] {
          agg_close_max_ = std::max(agg_close_max_, close_max);
          agg_reports_[s] = merged;
          if (--reports_pending_ == 0) {
            collect_end_ = eng_.now();
            compute_hier();
          }
        });
      });
    });
  }

  void send_collect_to_agg(std::size_t a) {
    global_host_.send(collect_req_size_, [this, a] {
      aggs_[a]->host->receive(collect_req_size_,
                              [this, a] { agg_collect_fanout(a); });
    });
  }

  void agg_collect_fanout(std::size_t a) {
    if (fault_ != nullptr) {
      Agg& agg = *aggs_[a];
      if (!fault_->aggregator_up(a, eng_.now())) {
        // Crashed aggregator: the whole subtree stays silent this cycle;
        // the global report deadline counts its stages stale.
        ++faults_injected_;
        return;
      }
      // Per-agg fault state is initialized when the request reaches the
      // aggregator (not at the global fan-out), so stragglers from the
      // previous cycle are ordered against it in virtual time.
      agg.fault_seen.assign(agg.stage_indices.size(), 0);
      agg.collect_open = true;
      agg.collect_extensions = 0;
      agg.fault_cycle = cycle_;
      agg.stale = 0;
      agg.recoveries.clear();
      eng_.schedule_in(fault_->phase_timeout(), [this, a, c = cycle_] {
        on_agg_collect_deadline(a, c);
      });
    }
    const std::vector<std::size_t>& indices = aggs_[a]->stage_indices;
    aggs_[a]->host->broadcast(indices.size(), collect_req_size_, [&](std::size_t i) {
      const std::size_t idx = indices[i];
      return [this, a, i, idx] {
        if (fault_ != nullptr && !stage_reachable(idx, eng_.now())) {
          return;
        }
        const proto::StageMetrics m = stages_[idx].collect(cycle_, eng_.now());
        const CollectFrame fr = frame_report(idx, m);
        const std::size_t sz = fr.wire;
        Nanos latency = stage_latency(idx, eng_.now());
        std::size_t copies = 1;
        if (fault_ != nullptr &&
            !reply_fate(fault::MessageKind::kCollectReply, idx, latency,
                        copies)) {
          return;
        }
        for (std::size_t copy = 0; copy < copies; ++copy) {
          const bool first = copy == 0;
          eng_.schedule_in(
              latency, [this, a, i, idx, m, fr, sz, first, c = cycle_] {
                aggs_[a]->host->receive(sz, [this, a, i, idx, m, fr, first, c] {
                  Agg& agg = *aggs_[a];
                  if (fault_ != nullptr) {
                    if (!first || !agg.collect_open || agg.fault_cycle != c ||
                        agg.fault_seen[i] != 0) {
                      return;  // duplicate or post-deadline straggler
                    }
                    agg.fault_seen[i] = 1;
                    note_fresh_reply(idx, eng_.now(), agg.recoveries);
                  }
                  account_collect_frame(fr);
                  if (store_collect_) {
                    // Slot index == position in stage_indices (bind order).
                    if (fr.is_delta) {
                      const core::DeltaStatus status =
                          agg.core->store().apply_delta(
                              fr.delta, static_cast<std::uint32_t>(i));
                      assert(status == core::DeltaStatus::kApplied);
                      (void)status;
                    } else {
                      agg.core->store().update_at(static_cast<std::uint32_t>(i),
                                                  m);
                    }
                  } else {
                    agg.collected.push_back(m);
                  }
                  if (--agg.pending_metrics == 0) {
                    agg_close_collect(a, false);
                  }
                });
              });
        }
      };
    });
  }

  void on_agg_collect_deadline(std::size_t a, std::uint64_t c) {
    Agg& agg = *aggs_[a];
    if (!agg.collect_open || agg.fault_cycle != c) return;
    const std::size_t expected = agg.stage_indices.size();
    const std::size_t received = expected - agg.pending_metrics;
    if (received < fault_->quorum_count(expected) &&
        agg.collect_extensions++ < fault_->max_deadline_extensions()) {
      eng_.schedule_in(fault_->phase_timeout(), [this, a, c] {
        on_agg_collect_deadline(a, c);
      });
      return;
    }
    agg_close_collect(a, agg.pending_metrics > 0);
  }

  void agg_close_collect(std::size_t a, bool degraded) {
    Agg& agg = *aggs_[a];
    if (fault_ != nullptr) {
      agg.collect_open = false;
      if (degraded) agg.stale += agg.pending_metrics;
    }
    agg_report(a);
  }

  void agg_report(std::size_t a) {
    Agg& agg = *aggs_[a];
    const std::size_t n_a = agg.stage_indices.size();
    // Local sub-collect close instant; travels with the report to the
    // global controller, where the max over aggregators bounds the
    // `aggregate` sub-segment.
    const Nanos local_close = eng_.now();
    if (cfg_.tracer != nullptr) {
      telemetry::Span span;
      span.name = "agg.collect";
      span.category = "component";
      span.track = static_cast<std::uint32_t>(1 + a);
      span.cycle = cycle_;
      span.start = cycle_start_;
      span.duration = local_close - cycle_start_;
      span.trace_id = cycle_;
      span.span_id = telemetry::derive_span_id(cycle_, span.track, span.name);
      span.parent_span = telemetry::derive_span_id(cycle_, 0, "collect");
      span.phase = telemetry::SpanPhase::kCollect;
      cfg_.tracer->record(std::move(span));
    }
    if (cfg_.preaggregate) {
      // Store path: incremental slot-ordered summary (only dirty jobs
      // re-summed); legacy path: full arrival-ordered merge.
      const proto::AggregatedMetrics report =
          store_collect_ ? agg.core->aggregate_from_store(cycle_)
                         : agg.core->aggregate(cycle_, agg.collected);
      const Nanos cost = scaled(prof_.cpu_agg_merge_per_stage, n_a);
      const std::size_t sz = frame_size(report);
      const int parent = agg.parent;
      // Degraded-subtree accounting travels with the report.
      const std::size_t stale = fault_ != nullptr ? agg.stale : 0;
      std::vector<Nanos> recovered;
      if (fault_ != nullptr) recovered.swap(agg.recoveries);
      agg.host->run(cost, [this, a, report, sz, parent, stale, local_close,
                           recovered = std::move(recovered)] {
        if (parent >= 0) {
          // Three-level tree: report to the parent super-aggregator.
          const auto s = static_cast<std::size_t>(parent);
          const std::size_t pos = aggs_[a]->child_pos;
          aggs_[a]->host->send(sz, [this, s, pos, report, sz, local_close] {
            supers_[s]->host->receive(sz, [this, s, pos, report, local_close] {
              super_accept_report(s, pos, report, local_close);
            });
          });
          return;
        }
        Nanos extra{0};
        std::size_t copies = 1;
        if (fault_ != nullptr) {
          if (!fault_->aggregator_up(a, eng_.now())) {
            // Aggregator died after collecting: report lost; the global
            // report deadline counts the subtree stale.
            ++faults_injected_;
            return;
          }
          if (!reply_fate(fault::MessageKind::kAggregatorReport, a, extra,
                          copies)) {
            return;
          }
        }
        for (std::size_t copy = 0; copy < copies; ++copy) {
          const bool first = copy == 0;
          aggs_[a]->host->send(sz, [this, a, report, sz, stale, recovered,
                                    extra, first, local_close, c = cycle_] {
            auto deliver = [this, a, report, stale, recovered, first,
                            local_close, c] {
              if (fault_ != nullptr) {
                if (!first || !report_open_ || c != cycle_ ||
                    report_seen_[a] != 0) {
                  return;  // duplicate or post-deadline straggler
                }
                report_seen_[a] = 1;
                cycle_stale_ += stale;
                if (stale > 0) cycle_degraded_ = true;
                cycle_recoveries_.insert(cycle_recoveries_.end(),
                                         recovered.begin(), recovered.end());
              }
              agg_close_max_ = std::max(agg_close_max_, local_close);
              agg_reports_[a] = report;
              on_agg_report_received(a);
            };
            if (extra > Nanos{0}) {
              eng_.schedule_in(extra, [this, sz, deliver = std::move(deliver)] {
                global_host_.receive(sz, std::move(deliver));
              });
            } else {
              global_host_.receive(sz, std::move(deliver));
            }
          });
        }
      });
    } else {
      const proto::MetricsBatch batch = agg.core->passthrough(cycle_, agg.collected);
      const Nanos cost = scaled(prof_.cpu_relay_per_stage, n_a);
      const std::size_t sz = frame_size(batch);
      agg.host->run(cost, [this, a, batch, sz, local_close] {
        aggs_[a]->host->send(sz, [this, a, batch, sz, local_close] {
          global_host_.receive(sz, [this, a, batch, local_close] {
            agg_close_max_ = std::max(agg_close_max_, local_close);
            passthrough_batches_[a] = batch.entries;
            on_agg_report_received(a);
          });
        });
      });
    }
  }

  void on_agg_report_received(std::size_t a) {
    if (--reports_pending_ == 0) {
      close_reports(false);
      return;
    }
    if (!cfg_.parallel_fanout) {
      serial_cursor_ = a + 1;
      if (serial_cursor_ < aggs_.size()) send_collect_to_agg(serial_cursor_);
    }
  }

  void on_report_deadline(std::uint64_t c) {
    if (!report_open_ || c != cycle_) return;
    const std::size_t received = aggs_.size() - reports_pending_;
    if (received < fault_->quorum_count(aggs_.size()) &&
        report_extensions_++ < fault_->max_deadline_extensions()) {
      eng_.schedule_in(fault_->phase_timeout(),
                       [this, c] { on_report_deadline(c); });
      return;
    }
    close_reports(reports_pending_ > 0);
  }

  void close_reports(bool degraded) {
    if (fault_ != nullptr) {
      report_open_ = false;
      if (degraded) {
        cycle_degraded_ = true;
        for (std::size_t a = 0; a < aggs_.size(); ++a) {
          if (report_seen_[a] == 0) {
            cycle_stale_ += aggs_[a]->stage_indices.size();
          }
        }
      }
    }
    collect_end_ = eng_.now();
    compute_hier();
  }

  void compute_hier() {
    Nanos cost = scaled(prof_.cpu_psfa_per_job, num_jobs());
    if (cfg_.local_decisions) {
      // Global only recomputes per-aggregator budget leases.
      compute_leases();
    } else if (cfg_.preaggregate) {
      compute_result_ = global_.compute(std::span<const proto::AggregatedMetrics>(
          agg_reports_.data(), agg_reports_.size()));
      cost = cost + scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    } else {
      // Concatenate the per-aggregator batches in aggregator-id order —
      // canonical input regardless of which batch arrived last.
      passthrough_metrics_.clear();
      for (const auto& entries : passthrough_batches_) {
        passthrough_metrics_.insert(passthrough_metrics_.end(),
                                    entries.begin(), entries.end());
      }
      compute_result_ = global_.compute(std::span<const proto::StageMetrics>(
          passthrough_metrics_.data(), passthrough_metrics_.size()));
      cost = cost + scaled(prof_.cpu_merge_per_stage, cfg_.num_stages) +
             scaled(prof_.cpu_split_per_stage, cfg_.num_stages);
    }
    after_sync([this, cost] {
      global_host_.run(cost, [this] {
        compute_end_ = eng_.now();
        after_sync([this] { enforce_hier(); });
      });
    });
  }

  /// Local-decision mode: split the global budgets across aggregators in
  /// proportion to their reported demand.
  void compute_leases() {
    double total_data = 0;
    double total_meta = 0;
    for (const auto& report : agg_reports_) {
      for (const auto& job : report.jobs) {
        total_data += job.data_iops;
        total_meta += job.meta_iops;
      }
    }
    leases_.assign(aggs_.size(), proto::BudgetLease{});
    for (const auto& report : agg_reports_) {
      double agg_data = 0;
      double agg_meta = 0;
      for (const auto& job : report.jobs) {
        agg_data += job.data_iops;
        agg_meta += job.meta_iops;
      }
      const std::size_t a = report.from.value();
      proto::BudgetLease lease;
      lease.cycle_id = cycle_;
      lease.data_budget =
          total_data > 0 ? cfg_.budgets.data_iops * agg_data / total_data
                         : cfg_.budgets.data_iops / static_cast<double>(aggs_.size());
      lease.meta_budget =
          total_meta > 0 ? cfg_.budgets.meta_iops * agg_meta / total_meta
                         : cfg_.budgets.meta_iops / static_cast<double>(aggs_.size());
      lease.valid_until_ns =
          static_cast<std::uint64_t>((eng_.now() + seconds(10)).count());
      leases_[a] = lease;
    }
  }

  void enforce_hier() {
    serial_cursor_ = 0;
    if (cfg_.local_decisions) {
      global_acks_pending_ = aggs_.size();
      if (cfg_.parallel_fanout) {
        for (std::size_t a = 0; a < aggs_.size(); ++a) send_lease_to_agg(a);
      } else {
        send_lease_to_agg(0);
      }
      return;
    }

    enforce_batches_.clear();
    enforce_batches_.resize(aggs_.size());
    auto grouped = global_.group_rules(compute_result_);
    for (auto& [via, batch] : grouped) {
      if (!via.valid()) continue;  // no directly-attached stages here
      enforce_batches_[via.value()] = std::move(batch);
    }

    if (deep()) {
      global_acks_pending_ = supers_.size();
      for (std::size_t s = 0; s < supers_.size(); ++s) {
        // One combined batch per super-aggregator subtree.
        proto::EnforceBatch combined;
        combined.cycle_id = cycle_;
        for (const std::size_t a : supers_[s]->children) {
          combined.rules.insert(combined.rules.end(),
                                enforce_batches_[a].rules.begin(),
                                enforce_batches_[a].rules.end());
        }
        const std::size_t sz = enforce_frame_size(combined);
        const Nanos routing =
            scaled(prof_.cpu_route_per_rule, combined.rules.size());
        global_host_.send(
            sz,
            [this, s, sz] {
              supers_[s]->host->receive(sz,
                                        [this, s] { super_enforce_fanout(s); });
            },
            routing);
      }
      return;
    }

    global_acks_pending_ = aggs_.size();
    if (fault_ != nullptr) {
      enforce_open_ = true;
      enforce_extensions_ = 0;
      enforce_expected_ = aggs_.size();
      ack_seen_.assign(aggs_.size(), 0);
      eng_.schedule_in(fault_->phase_timeout(), [this, c = cycle_] {
        on_enforce_deadline(c);
      });
    }
    if (cfg_.parallel_fanout) {
      for (std::size_t a = 0; a < aggs_.size(); ++a) send_enforce_to_agg(a);
    } else {
      send_enforce_to_agg(0);
    }
  }

  void super_enforce_fanout(std::size_t s) {
    Super& super = *supers_[s];
    super.pending_acks = super.children.size();
    super.acks_applied = 0;
    super.rule_applied_max = Nanos{-1};
    for (const std::size_t a : super.children) {
      const proto::EnforceBatch& batch = enforce_batches_[a];
      const std::size_t sz = enforce_frame_size(batch);
      const Nanos routing = scaled(prof_.cpu_route_per_rule, batch.rules.size());
      super.host->send(
          sz,
          [this, a, sz] {
            aggs_[a]->host->receive(sz, [this, a] { agg_enforce_fanout(a); });
          },
          routing);
    }
  }

  void super_accept_ack(std::size_t s, std::uint32_t applied,
                        Nanos applied_max) {
    Super& super = *supers_[s];
    super.acks_applied += applied;
    super.rule_applied_max = std::max(super.rule_applied_max, applied_max);
    if (--super.pending_acks > 0) return;
    proto::EnforceAck merged;
    merged.cycle_id = cycle_;
    merged.applied = super.acks_applied;
    const std::size_t sz = frame_size(merged);
    const Nanos apply_max = super.rule_applied_max;
    super.host->send(sz, [this, sz, apply_max] {
      global_host_.receive(sz, [this, apply_max] {
        rule_apply_max_ = std::max(rule_apply_max_, apply_max);
        if (--global_acks_pending_ == 0) finish_cycle();
      });
    });
  }

  void send_enforce_to_agg(std::size_t a) {
    const proto::EnforceBatch& batch = enforce_batches_[a];
    const std::size_t sz = enforce_frame_size(batch);
    const Nanos routing = scaled(prof_.cpu_route_per_rule, batch.rules.size());
    global_host_.send(
        sz,
        [this, a, sz] {
          if (fault_ != nullptr && !fault_->aggregator_up(a, eng_.now())) {
            // Crashed aggregator: its subtree's rules are lost; the
            // global ack deadline closes the cycle degraded.
            ++faults_injected_;
            return;
          }
          aggs_[a]->host->receive(sz, [this, a] { agg_enforce_fanout(a); });
        },
        routing);
  }

  void agg_enforce_fanout(std::size_t a) {
    Agg& agg = *aggs_[a];
    const auto routed = agg.core->route(enforce_batches_[a]);
    agg.pending_acks = routed.owned.size();
    agg.acks_applied = 0;
    agg.rule_applied_max = Nanos{-1};
    agg.enforce_expected = routed.owned.size();
    if (agg.pending_acks == 0) {
      agg_merged_ack(a);
      return;
    }
    if (fault_ != nullptr) {
      agg.enforce_open = true;
      agg.enforce_extensions = 0;
      agg.fault_cycle = cycle_;
      eng_.schedule_in(fault_->phase_timeout(), [this, a, c = cycle_] {
        on_agg_enforce_deadline(a, c);
      });
    }
    for (const auto& rule : routed.owned) {
      send_rule_from_agg(a, rule);
    }
  }

  void on_agg_enforce_deadline(std::size_t a, std::uint64_t c) {
    Agg& agg = *aggs_[a];
    if (!agg.enforce_open || agg.fault_cycle != c) return;
    const std::size_t acked = agg.enforce_expected - agg.pending_acks;
    if (acked < fault_->quorum_count(agg.enforce_expected) &&
        agg.enforce_extensions++ < fault_->max_deadline_extensions()) {
      eng_.schedule_in(fault_->phase_timeout(), [this, a, c] {
        on_agg_enforce_deadline(a, c);
      });
      return;
    }
    agg.enforce_open = false;
    agg_merged_ack(a);  // partial: applied < expected marks the cycle degraded
  }

  void send_rule_from_agg(std::size_t a, const proto::Rule& rule) {
    proto::EnforceBatch single;
    single.cycle_id = cycle_;
    single.rules.push_back(rule);
    const std::size_t sz = enforce_frame_size(single);
    aggs_[a]->host->send(
        sz,
        [this, a, rule, c = cycle_] {
          apply_rule_and_ack(
              rule, aggs_[a]->host.get(), [this, a, c](Nanos applied_at) {
                Agg& agg = *aggs_[a];
                if (fault_ != nullptr &&
                    (!agg.enforce_open || agg.fault_cycle != c)) {
                  return;  // ack after the deadline closed
                }
                agg.rule_applied_max =
                    std::max(agg.rule_applied_max, applied_at);
                ++agg.acks_applied;
                if (--agg.pending_acks == 0) {
                  agg.enforce_open = false;
                  agg_merged_ack(a);
                }
              });
        },
        prof_.cpu_route_per_rule);
  }

  void send_lease_to_agg(std::size_t a) {
    const std::size_t sz = frame_size(leases_[a]);
    global_host_.send(sz, [this, a, sz] {
      aggs_[a]->host->receive(sz, [this, a] { agg_local_decide(a); });
    });
  }

  void agg_local_decide(std::size_t a) {
    Agg& agg = *aggs_[a];
    agg.core->set_lease(leases_[a]);
    const auto rules = agg.core->local_compute(
        cycle_, agg.collected,
        static_cast<std::uint64_t>(eng_.now().count()));
    const std::size_t n_a = agg.stage_indices.size();
    const Nanos cost =
        scaled(prof_.cpu_psfa_per_job, std::max<std::size_t>(1, num_jobs() / aggs_.size())) +
        scaled(prof_.cpu_split_per_stage, n_a);
    agg.host->run(cost, [this, a, rules] {
      Agg& agg_ref = *aggs_[a];
      agg_ref.pending_acks = rules.size();
      agg_ref.acks_applied = 0;
      agg_ref.rule_applied_max = Nanos{-1};
      if (rules.empty()) {
        agg_merged_ack(a);
        return;
      }
      for (const auto& rule : rules) send_rule_from_agg(a, rule);
    });
  }

  void agg_merged_ack(std::size_t a) {
    Agg& agg = *aggs_[a];
    proto::EnforceAck merged;
    merged.cycle_id = cycle_;
    merged.applied = agg.acks_applied;
    const std::size_t sz = frame_size(merged);
    if (agg.parent >= 0) {
      const auto s = static_cast<std::size_t>(agg.parent);
      const std::uint32_t applied = merged.applied;
      const Nanos applied_max = agg.rule_applied_max;
      agg.host->send(sz, [this, s, sz, applied, applied_max] {
        supers_[s]->host->receive(sz, [this, s, applied, applied_max] {
          super_accept_ack(s, applied, applied_max);
        });
      });
      return;
    }
    Nanos extra{0};
    std::size_t copies = 1;
    bool short_acked = false;
    if (fault_ != nullptr) {
      short_acked =
          agg.enforce_expected > 0 && agg.acks_applied < agg.enforce_expected;
      if (!fault_->aggregator_up(a, eng_.now())) {
        ++faults_injected_;
        return;  // merged ack lost; the global ack deadline closes
      }
      if (!reply_fate(fault::MessageKind::kAggregatorAck, a, extra, copies)) {
        return;
      }
    }
    const Nanos applied_max = agg.rule_applied_max;
    for (std::size_t copy = 0; copy < copies; ++copy) {
      const bool first = copy == 0;
      agg.host->send(sz, [this, a, sz, extra, first, short_acked, applied_max,
                          c = cycle_] {
        auto deliver = [this, a, first, short_acked, applied_max, c] {
          if (fault_ != nullptr) {
            if (!first || !enforce_open_ || c != cycle_ ||
                ack_seen_[a] != 0) {
              return;  // duplicate or post-deadline straggler
            }
            ack_seen_[a] = 1;
            if (short_acked) cycle_degraded_ = true;
          }
          rule_apply_max_ = std::max(rule_apply_max_, applied_max);
          if (--global_acks_pending_ == 0) {
            enforce_open_ = false;
            finish_cycle();
            return;
          }
          if (!cfg_.parallel_fanout) {
            serial_cursor_ = a + 1;
            if (serial_cursor_ < aggs_.size()) {
              if (cfg_.local_decisions) {
                send_lease_to_agg(serial_cursor_);
              } else {
                send_enforce_to_agg(serial_cursor_);
              }
            }
          }
        };
        if (extra > Nanos{0}) {
          eng_.schedule_in(extra, [this, sz, deliver = std::move(deliver)] {
            global_host_.receive(sz, std::move(deliver));
          });
        } else {
          global_host_.receive(sz, std::move(deliver));
        }
      });
    }
  }

  // ------------------------------------------------------------------

  void finish_cycle() {
    core::PhaseBreakdown breakdown;
    breakdown.collect = collect_end_ - cycle_start_;
    breakdown.compute = compute_end_ - collect_end_;
    breakdown.enforce = eng_.now() - compute_end_;
    // Attributed sub-segments (see CycleStats): `aggregate` is the tail
    // of collect after the last aggregator closed its local sub-collect,
    // `disseminate` the head of enforce until the last stage applied a
    // rule. Nanos{-1} = no boundary observed → sub-segment stays 0.
    if (agg_close_max_ >= Nanos{0}) {
      breakdown.aggregate =
          std::clamp(collect_end_ - agg_close_max_, Nanos{0}, breakdown.collect);
    }
    if (rule_apply_max_ >= Nanos{0}) {
      breakdown.disseminate = std::clamp(rule_apply_max_ - compute_end_,
                                         Nanos{0}, breakdown.enforce);
    }
    stats_.record(cycle_, breakdown,
                  fault_ != nullptr && (cycle_degraded_ || cycle_stale_ > 0),
                  cycle_stale_);
    if (fault_ != nullptr) {
      if (cycle_degraded_ || cycle_stale_ > 0) {
        stats_.record_degraded(cycle_stale_);
      }
      for (const Nanos r : cycle_recoveries_) stats_.record_recovery(r);
      cycle_degraded_ = false;
      cycle_stale_ = 0;
      cycle_recoveries_.clear();
      collect_open_ = false;
      report_open_ = false;
      enforce_open_ = false;
    }
    last_cycle_end_ = eng_.now();
    trace_cycle(breakdown);
    cycle_in_flight_ = false;

    const bool hit_cycle_cap =
        cfg_.max_cycles != 0 && stats_.cycles() >= cfg_.max_cycles;
    if (hit_cycle_cap || eng_.now() >= cfg_.duration) {
      done_ = true;
      return;
    }
    if (cfg_.cycle_period > Nanos{0}) {
      const Nanos next = cycle_start_ + cfg_.cycle_period;
      if (next > eng_.now()) {
        if (coordinated()) {
          // Deferred: on_queue_drained() starts it once this cycle's
          // last events have run, as it joins the cycle.
          next_cycle_pending_ = true;
          next_cycle_at_ = next;
        } else {
          eng_.schedule_at(next, [this] { start_cycle(); });
        }
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
  /// at or after t. run_before leaves the clock at the last executed
  /// event, which the coordinated join reads; when the queue drains,
  /// that join runs before any pending sample. Sampling stops at the
  /// first sample instant reached after the run is done.
  void run_events() {
    constexpr Nanos kNever{std::numeric_limits<std::int64_t>::max()};
    Nanos next_sample = kUtilizationSampleInterval;
    bool sampling = true;
    for (;;) {
      eng_.run_before(sampling ? next_sample : kNever);
      if (eng_.empty() && on_queue_drained()) continue;
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

    const double n = static_cast<double>(cfg_.num_stages);
    if (coordinated()) {
      // Each peer looks like a small flat controller plus K-1 peer links.
      const double k = static_cast<double>(peers_.size());
      const auto peer_mem = [&](const Peer& peer) {
        return prof_.mem_base_bytes +
               static_cast<double>(peer.stage_indices.size()) *
                   (prof_.mem_per_conn_bytes + prof_.mem_per_stage_state_bytes) +
               (k - 1) * prof_.mem_per_conn_bytes;
      };
      result.global =
          usage(*peers_[0]->host, peer_mem(*peers_[0]), prof_.cpu_percent_scale);
      ControllerUsage sum;
      for (const auto& peer : peers_) {
        const ControllerUsage u =
            usage(*peer->host, peer_mem(*peer), prof_.cpu_percent_scale);
        sum.cpu_percent += u.cpu_percent;
        sum.memory_gb += u.memory_gb;
        sum.transmitted_mbps += u.transmitted_mbps;
        sum.received_mbps += u.received_mbps;
      }
      result.aggregator = {sum.cpu_percent / k, sum.memory_gb / k,
                           sum.transmitted_mbps / k, sum.received_mbps / k};
      return result;
    }
    if (flat()) {
      const double mem = prof_.mem_base_bytes +
                         n * (prof_.mem_per_conn_bytes +
                              prof_.mem_per_stage_state_bytes);
      result.global = usage(global_host_, mem, prof_.cpu_percent_scale);
    } else {
      const double mem =
          prof_.mem_base_bytes +
          static_cast<double>(aggs_.size()) * prof_.mem_per_conn_bytes +
          n * (prof_.mem_per_stage_state_bytes + prof_.mem_per_stage_hier_bytes);
      result.global = usage(global_host_, mem, prof_.cpu_percent_scale);

      ControllerUsage sum;
      for (const auto& agg : aggs_) {
        const double agg_mem =
            prof_.mem_agg_base_bytes +
            static_cast<double>(agg->stage_indices.size()) *
                prof_.mem_agg_per_stage_bytes;
        const ControllerUsage u =
            usage(*agg->host, agg_mem, prof_.agg_cpu_percent_scale);
        sum.cpu_percent += u.cpu_percent;
        sum.memory_gb += u.memory_gb;
        sum.transmitted_mbps += u.transmitted_mbps;
        sum.received_mbps += u.received_mbps;
      }
      const double a = static_cast<double>(aggs_.size());
      result.aggregator = {sum.cpu_percent / a, sum.memory_gb / a,
                           sum.transmitted_mbps / a, sum.received_mbps / a};

      if (!supers_.empty()) {
        ControllerUsage ssum;
        for (const auto& super : supers_) {
          const double super_mem =
              prof_.mem_agg_base_bytes +
              static_cast<double>(super->children.size()) *
                  prof_.mem_per_conn_bytes;
          const ControllerUsage u =
              usage(*super->host, super_mem, prof_.agg_cpu_percent_scale);
          ssum.cpu_percent += u.cpu_percent;
          ssum.memory_gb += u.memory_gb;
          ssum.transmitted_mbps += u.transmitted_mbps;
          ssum.received_mbps += u.received_mbps;
        }
        const double s = static_cast<double>(supers_.size());
        result.super_aggregator = {ssum.cpu_percent / s, ssum.memory_gb / s,
                                   ssum.transmitted_mbps / s,
                                   ssum.received_mbps / s};
      }
    }
    return result;
  }

  // ------------------------------------------------------------------

  struct Agg {
    std::unique_ptr<core::AggregatorCore> core;
    std::unique_ptr<SimHost> host;
    std::vector<std::size_t> stage_indices;
    std::vector<proto::StageMetrics> collected;
    std::size_t pending_metrics = 0;
    std::size_t pending_acks = 0;
    std::uint32_t acks_applied = 0;
    /// Parent super-aggregator index (-1 = reports directly to global).
    int parent = -1;
    /// Position among the parent's children (canonical report slot).
    std::size_t child_pos = 0;
    // -- Fault state --------------------------------------------------------
    /// Local-stage-index-indexed reply guard for the current sub-collect.
    std::vector<char> fault_seen;
    bool collect_open = false;
    bool enforce_open = false;
    std::size_t collect_extensions = 0;
    std::size_t enforce_extensions = 0;
    std::size_t enforce_expected = 0;
    /// Cycle the open phase belongs to (staleness stamp for deadlines
    /// and late acks).
    std::uint64_t fault_cycle = 0;
    /// Silent stages this cycle; travels with the report.
    std::size_t stale = 0;
    /// Recovery samples this cycle; travel with the report.
    std::vector<Nanos> recoveries;
    /// Latest instant one of this agg's stages applied a rule this cycle
    /// (travels with the merged ack, for the `disseminate` sub-segment).
    /// Nanos{-1} = none applied.
    Nanos rule_applied_max{-1};
  };

  /// Third-level controller (3-level hierarchies).
  struct Super {
    std::unique_ptr<SimHost> host;
    std::vector<std::size_t> children;  // aggregator indices
    /// Child-position-indexed (canonical merge order).
    std::vector<proto::AggregatedMetrics> child_reports;
    std::size_t pending_reports = 0;
    std::size_t pending_acks = 0;
    std::uint32_t acks_applied = 0;
    /// Latest child local collect-close relayed this cycle (travels with
    /// the merged report). Nanos{-1} = none.
    Nanos child_close_max{-1};
    /// Latest rule-apply instant among the children's acks.
    Nanos rule_applied_max{-1};
  };

  struct Peer {
    std::unique_ptr<core::CoordinatedControllerCore> core;
    std::unique_ptr<SimHost> host;
    std::vector<std::size_t> stage_indices;
    std::vector<proto::StageMetrics> collected;
    /// All-to-all exchange buffer, indexed by source peer — every peer
    /// feeds PSFA the same input regardless of arrival order.
    std::vector<proto::AggregatedMetrics> summaries;
    std::size_t summaries_received = 0;
    std::size_t pending_metrics = 0;
    std::size_t pending_acks = 0;
    /// Phase completion instants, joined by on_queue_drained() into the
    /// cycle's phase boundaries.
    Nanos exchange_done_at{0};
    Nanos compute_done_at{0};
    Nanos enforce_done_at{0};
  };

  const ExperimentConfig& cfg_;
  const FronteraProfile& prof_;
  Engine eng_;
  SimHost global_host_;
  core::GlobalControllerCore global_;
  /// Columnar store backing the flat collect path (hierarchical runs use
  /// each AggregatorCore's own store instead).
  core::MetricsStore store_;
  /// Store path enabled for this run (cfg_.store_collect minus the modes
  /// that keep the legacy pipeline; resolved in execute()).
  bool store_collect_ = false;
  bool delta_collect_ = false;
  std::vector<std::unique_ptr<Agg>> aggs_;
  std::vector<std::unique_ptr<Super>> supers_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<stage::VirtualStage> stages_;

  // Per-cycle state.
  std::uint64_t cycle_ = 0;
  Nanos cycle_start_{0};
  Nanos collect_end_{0};
  Nanos compute_end_{0};
  Nanos last_cycle_end_{0};
  // Phase-attribution instants at the global controller, max-folded from
  // values carried by the reply closures; Nanos{-1} = no boundary
  // observed this cycle (the sub-segment stays 0).
  /// Latest aggregator local collect-close → `aggregate` sub-segment.
  Nanos agg_close_max_{-1};
  /// Latest rule-apply instant at a stage → `disseminate` sub-segment.
  Nanos rule_apply_max_{-1};
  std::size_t collect_req_size_ = 0;
  std::vector<proto::StageMetrics> flat_metrics_;
  std::size_t flat_pending_ = 0;
  /// Aggregator-id-indexed (super-id-indexed in deep mode).
  std::vector<proto::AggregatedMetrics> agg_reports_;
  std::vector<proto::StageMetrics> passthrough_metrics_;
  /// Aggregator-id-indexed passthrough batches, concatenated in id
  /// order at compute time.
  std::vector<std::vector<proto::StageMetrics>> passthrough_batches_;
  std::size_t reports_pending_ = 0;
  std::vector<proto::EnforceBatch> enforce_batches_;
  std::vector<proto::BudgetLease> leases_;
  std::size_t global_acks_pending_ = 0;
  std::size_t serial_cursor_ = 0;
  core::ComputeResult compute_result_;
  /// What enforce_flat disseminates: &compute_result_ on the batch
  /// paths, GlobalControllerCore's persistent store-backed result on the
  /// incremental path. Set by compute_flat() before every enforce.
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
  bool cycle_in_flight_ = false;
  bool next_cycle_pending_ = false;
  Nanos next_cycle_at_{0};
  bool done_ = false;

  // -- Fault-injection state (unallocated without a plan) ---------------
  std::unique_ptr<fault::CompiledPlan> fault_;
  std::uint64_t faults_injected_ = 0;
  /// Virtual time of the last accepted collect reply per stage, for
  /// recovery accounting. Nanos{-1} = never.
  std::vector<Nanos> last_fresh_at_;
  /// Received-only metrics, compacted for degraded flat computes.
  std::vector<proto::StageMetrics> flat_scratch_;
  // Global-controller phase state: flat collect, hier reports, enforce
  // acks.
  bool collect_open_ = false;
  bool report_open_ = false;
  bool enforce_open_ = false;
  std::size_t collect_extensions_ = 0;
  std::size_t report_extensions_ = 0;
  std::size_t enforce_extensions_ = 0;
  std::size_t enforce_expected_ = 0;
  std::vector<char> collect_seen_;
  std::vector<char> report_seen_;
  std::vector<char> ack_seen_;
  // Per-cycle degraded accounting, recorded and reset in finish_cycle().
  bool cycle_degraded_ = false;
  std::size_t cycle_stale_ = 0;
  std::vector<Nanos> cycle_recoveries_;
};

}  // namespace

Result<ExperimentResult> run_experiment(const ExperimentConfig& config) {
  Run run(config);
  SDS_RETURN_IF_ERROR(run.validate());
  return run.execute();
}

}  // namespace sds::sim
