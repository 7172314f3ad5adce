// AggregatorCore — decision logic of the hierarchical design's middle
// tier. Sits between the global controller and a disjoint set of stages:
// merges stage metrics into per-job summaries upward (Cheferd-style
// pre-aggregation), merges child summaries and stage acks. The node that
// hosts it keeps the roster and routes the rules.
//
// Three extensions beyond the paper's prototype, all from its future-work
// section: pass-through mode (no pre-aggregation; the ablation for
// Observation #7), local-decision mode, where the aggregator runs the
// control algorithm itself inside a budget lease granted by the global
// controller, and coordinated-peer mode, where K peers with no global
// controller each compute the global allocation from every peer's
// summary and enforce their own share.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/metrics_store.h"
#include "core/policy_table.h"
#include "policy/algorithm.h"
#include "policy/psfa.h"
#include "policy/splitter.h"
#include "proto/messages.h"

namespace sds::core {

struct AggregatorOptions {
  ControllerId id;
  /// Merge stage metrics into per-job summaries before forwarding.
  bool preaggregate = true;
  /// Attach compact per-stage digests to the upward summary so the
  /// global controller can split job allocations proportionally to
  /// per-stage demand (see proto::StageDigest).
  bool include_digests = true;
  /// Compute-view threshold of the backing MetricsStore (ops/s); see
  /// MetricsStoreOptions::activity_threshold.
  double activity_threshold = 0.0;
};

/// Merge child summaries in the order given: job rows summed in
/// first-seen order, digests concatenated so the receiver keeps per-stage
/// visibility. Both executors' interior nodes merge through this one
/// function, in child order, so the input order is canonical regardless
/// of arrival order.
[[nodiscard]] proto::AggregatedMetrics merge_summaries(
    std::uint64_t cycle_id, ControllerId from,
    std::span<const proto::AggregatedMetrics> children);

class AggregatorCore {
 public:
  explicit AggregatorCore(
      AggregatorOptions options,
      std::unique_ptr<policy::ControlAlgorithm> local_algorithm = nullptr);

  [[nodiscard]] ControllerId id() const { return options_.id; }
  [[nodiscard]] bool preaggregate() const { return options_.preaggregate; }

  /// Merge per-stage metrics into the upward job summary, in arrival
  /// order. Only the simulator's batch collect path calls it (faults,
  /// coordinated peers, local decisions); every live ControllerNode folds
  /// its stages into store() and summarizes with aggregate_from_store().
  [[nodiscard]] proto::AggregatedMetrics aggregate(
      std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics) const;

  /// Pass-through alternative: relay raw stage metrics in one batch.
  [[nodiscard]] proto::MetricsBatch passthrough(
      std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics) const;

  /// Columnar store backing the incremental collect path: the host binds
  /// its stages once, then folds full frames / deltas in as they arrive
  /// (no per-cycle scratch vector of StageMetrics).
  [[nodiscard]] MetricsStore& store() { return store_; }
  [[nodiscard]] const MetricsStore& store() const { return store_; }

  /// Incremental alternative to aggregate(): maintains a persistent
  /// upward summary over the store, re-summing only jobs whose stages
  /// moved since the last call and refreshing only the dirty stages'
  /// digests. Jobs and digests are emitted in ascending store-slot
  /// order (stable across cycles); values read the store's compute
  /// view, matching what the flat store path feeds PSFA. Stage counts
  /// cover every bound stage — a silent stage contributes its last
  /// report (decide-on-stale semantics).
  const proto::AggregatedMetrics& aggregate_from_store(std::uint64_t cycle_id);

  /// Merge per-stage acks into the single upward ack.
  [[nodiscard]] proto::EnforceAck merge_acks(
      std::uint64_t cycle_id, std::span<const proto::EnforceAck> acks) const;

  // -- Local-decision mode (paper §VI) -------------------------------

  /// Install the lease under which local decisions are made.
  void set_lease(const proto::BudgetLease& lease) { lease_ = lease; }
  [[nodiscard]] const proto::BudgetLease& lease() const { return lease_; }
  [[nodiscard]] PolicyTable& policies() { return policies_; }

  /// Run the control algorithm locally over this subtree using the leased
  /// budgets; `now_ns` validates the lease. Returns rules for owned
  /// stages (empty if the lease expired — the safe failure mode).
  [[nodiscard]] std::vector<proto::Rule> local_compute(
      std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics,
      std::uint64_t now_ns) const;

  // -- Coordinated-peer mode (paper §VI) -----------------------------
  //
  // Each cycle every peer summarizes its own stages (aggregate() without
  // digests) and sends the summary to all peers. Every peer then merges
  // all K summaries in ascending peer-id order and runs the same
  // deterministic algorithm on them, so all peers reach the same global
  // allocation with no further coordination.

  /// Merge every peer's summary (this peer's included) into the global
  /// demand, allocate the policy table's budgets over it, and return
  /// rules for this peer's own stages only: each job's allocation scaled
  /// to the share of its demand seen locally, split over `local_metrics`.
  [[nodiscard]] std::vector<proto::Rule> compute_own_rules(
      std::uint64_t cycle_id,
      std::span<const proto::AggregatedMetrics> all_summaries,
      std::span<const proto::StageMetrics> local_metrics) const;

 private:
  /// Derived per-slot state for aggregate_from_store, rebuilt when the
  /// store's structure epoch moves.
  struct StoreState {
    bool valid = false;
    std::uint64_t structure_epoch = 0;
    std::vector<std::uint32_t> job_of_stage;
    std::vector<std::vector<std::uint32_t>> stages_of_job;
    std::vector<std::uint8_t> job_dirty;
    std::vector<std::uint32_t> dirty_jobs;
    std::vector<std::uint32_t> dirty_stages;
    proto::AggregatedMetrics out;
  };
  void rebuild_store_state();

  AggregatorOptions options_;
  std::unique_ptr<policy::ControlAlgorithm> algorithm_;
  policy::RuleSplitter splitter_;
  PolicyTable policies_;
  proto::BudgetLease lease_;
  MetricsStore store_;
  StoreState store_state_;
};

}  // namespace sds::core
