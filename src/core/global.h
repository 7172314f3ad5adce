// GlobalControllerCore — the decision logic of the paper's global
// controller, free of any I/O or threading so the same code runs under
// the live runtime and the discrete-event simulator.
//
// Flat design: ingests raw per-stage metrics, runs the control algorithm
// (PSFA by default) per metric dimension, and derives one rule per stage
// using demand-proportional splitting.
//
// Hierarchical design: ingests pre-aggregated per-job metrics from
// aggregators, runs the same algorithm, and splits job allocations
// uniformly across each job's registered stages (per-stage demand is not
// visible through the aggregation — the memory/visibility trade-off the
// paper discusses).
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/metrics_store.h"
#include "core/policy_table.h"
#include "core/registry.h"
#include "policy/algorithm.h"
#include "policy/psfa.h"
#include "policy/splitter.h"
#include "proto/messages.h"

namespace sds::core {

struct GlobalOptions {
  Budgets budgets;
  policy::SplitStrategy split = policy::SplitStrategy::kProportional;
  /// Controller incarnation; bumped on failover so stages reject rules
  /// from a superseded controller (stale-rule detection).
  std::uint32_t epoch = 1;
};

/// Output of the compute phase.
struct ComputeResult {
  std::vector<proto::Rule> rules;
  std::vector<policy::JobAllocation> data_allocations;
  std::vector<policy::JobAllocation> meta_allocations;
};

class GlobalControllerCore {
 public:
  explicit GlobalControllerCore(
      GlobalOptions options = {},
      std::unique_ptr<policy::ControlAlgorithm> algorithm = nullptr);

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] PolicyTable& policies() { return policies_; }
  [[nodiscard]] const policy::ControlAlgorithm& algorithm() const { return *algorithm_; }

  /// Start cycle n+1 and build its collect request.
  proto::CollectRequest begin_cycle();
  [[nodiscard]] std::uint64_t current_cycle() const { return cycle_; }

  /// Flat batch path (the simulator's): per-stage metrics from stages.
  [[nodiscard]] ComputeResult compute(std::span<const proto::StageMetrics> metrics) const;

  /// Hierarchical path: job summaries from aggregators.
  [[nodiscard]] ComputeResult compute(
      std::span<const proto::AggregatedMetrics> aggregated) const;

  /// Incremental flat path over a columnar MetricsStore: re-sums demand
  /// only for jobs with dirty stages, re-runs the control algorithm only
  /// when some job's (demand, weight) or a budget changed, and re-splits
  /// only jobs whose allocation or member-stage demand moved. The
  /// returned result is persistent (rules ordered by store slot index,
  /// updated in place; only re-split rules get the cycle's epoch stamp —
  /// stages accept equal epochs, so unchanged rules re-apply) and is
  /// limit-bit-identical
  /// to what `compute()` returns over the same stage values — asserted
  /// by the property tests and the --psfa-full-recompute ablation,
  /// which passes `full_recompute = true` to force the whole pipeline.
  const ComputeResult& compute_from_store(MetricsStore& store,
                                          bool full_recompute = false);

  struct StoreComputeStats {
    std::uint64_t cycles = 0;
    /// Control-algorithm invocations (2 per cycle when inputs moved).
    std::uint64_t algorithm_runs = 0;
    std::uint64_t jobs_resummed = 0;
    std::uint64_t jobs_resplit = 0;
    std::uint64_t stages_resplit = 0;
  };
  [[nodiscard]] const StoreComputeStats& store_compute_stats() const {
    return store_stats_;
  }

  /// Group rules by the aggregator responsible for each stage (rules for
  /// directly-connected stages appear under ControllerId::invalid()).
  [[nodiscard]] std::unordered_map<ControllerId, proto::EnforceBatch>
  group_rules(const ComputeResult& result) const;

  /// Bump the controller epoch (failover takeover).
  void advance_epoch();
  [[nodiscard]] std::uint32_t epoch() const { return options_.epoch; }

  /// Rule epoch for the current cycle: (controller epoch, cycle) packed so
  /// later controllers and later cycles always compare greater.
  [[nodiscard]] std::uint64_t rule_epoch() const;

 private:
  ComputeResult compute_from_job_demands(
      std::vector<policy::JobDemand> data_demands,
      std::vector<policy::JobDemand> meta_demands,
      std::span<const proto::StageMetrics> stage_detail) const;

  /// Per-store derived state for compute_from_store, rebuilt when the
  /// store's structure epoch moves. Job slots are in ascending
  /// stage-slot first-seen order — the same order DemandBuilder yields
  /// for slot-ordered input, which keeps FP sums bit-identical to the
  /// batch path.
  struct StoreState {
    bool valid = false;
    std::uint64_t structure_epoch = 0;
    std::vector<std::uint32_t> job_of_stage;
    std::vector<std::vector<std::uint32_t>> stages_of_job;
    std::vector<policy::JobDemand> data_demands;
    std::vector<policy::JobDemand> meta_demands;
    std::vector<double> prev_data_alloc;
    std::vector<double> prev_meta_alloc;
    std::vector<std::uint8_t> job_dirty;
    std::vector<std::uint32_t> dirty_jobs;
    std::vector<std::uint32_t> dirty_stages;
    Budgets budgets;
    ComputeResult result;
  };
  void rebuild_store_state(const MetricsStore& store);

  GlobalOptions options_;
  std::unique_ptr<policy::ControlAlgorithm> algorithm_;
  policy::RuleSplitter splitter_;
  Registry registry_;
  PolicyTable policies_;
  std::uint64_t cycle_ = 0;
  StoreState store_state_;
  StoreComputeStats store_stats_;
};

}  // namespace sds::core
