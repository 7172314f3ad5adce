// Deployment — convenience builder for a full live control plane on one
// transport network (in-process by default): a root ControllerNode (the
// global controller), an optional layer of interior nodes (aggregators),
// and stage hosts with virtual stages. Used by the examples and the
// integration tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
// ControllerNode, and the role names its users still spell.
#include "runtime/aggregator_server.h"
#include "runtime/global_server.h"
#include "runtime/stage_host.h"
#include "transport/inproc.h"

namespace sds::runtime {

struct DeploymentOptions {
  std::size_t num_stages = 8;
  std::size_t num_aggregators = 0;  // 0 = flat
  std::size_t stages_per_job = 4;
  std::size_t stages_per_host = 8;  // paper: 50 virtual stages per node
  core::Budgets budgets{};
  Nanos phase_timeout = seconds(5);
  /// The root's gather quorum (ControllerNodeOptions::collect_quorum).
  double collect_quorum = 1.0;
  /// Local-decision mode (paper §VI): lease budgets to aggregators that
  /// run PSFA over their own subtree. Requires num_aggregators > 0.
  bool local_decisions = false;
  /// Per-endpoint connection cap (0 = unlimited), mirroring the paper's
  /// per-node limit.
  std::size_t max_connections = 0;
  /// Stage hosts answer collects with StageMetricsDelta frames
  /// (StageHostOptions::delta_metrics); whichever node a stage reports
  /// to, the global controller or an aggregator, folds them through its
  /// columnar MetricsStore.
  bool delta_metrics = false;
  std::size_t delta_refresh = 64;
  /// Demand for every stage when no factory is given.
  double data_demand = 1000;
  double meta_demand = 100;
  std::function<stage::DemandFn(StageId, stage::Dimension)> demand_factory;
};

class Deployment {
 public:
  /// Build and start the whole topology on `network`; registers all
  /// stages and waits until the global controller knows the full roster.
  static Result<std::unique_ptr<Deployment>> create(
      transport::Network& network, const DeploymentOptions& options);

  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] ControllerNode& global() { return *global_; }
  [[nodiscard]] std::vector<std::unique_ptr<ControllerNode>>& aggregators() {
    return aggregators_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<StageHost>>& stage_hosts() {
    return stage_hosts_;
  }

  /// Limit currently enforced at a stage (searches all hosts).
  [[nodiscard]] Result<double> stage_limit(StageId stage,
                                           stage::Dimension dim) const;

  // Fault controls (used by FaultDriver and the failover tests). A kill
  // shuts the server down in place — peers observe connection-closed
  // events exactly as for a real crash; the dead object stays in its
  // slot so indices remain stable. A restart replaces the slot with a
  // fresh server bound to the same address (the in-process transport
  // unbinds on shutdown, so rebinding succeeds) and, for stage hosts,
  // re-adds and re-registers the host's virtual stages.
  Status kill_aggregator(std::size_t index);
  Status restart_aggregator(std::size_t index);
  Status kill_stage_host(std::size_t index);
  Status restart_stage_host(std::size_t index);

  void shutdown();

 private:
  Deployment() = default;

  [[nodiscard]] Result<std::unique_ptr<ControllerNode>> make_aggregator(
      std::size_t index) const;
  [[nodiscard]] Result<std::unique_ptr<StageHost>> make_stage_host(
      std::size_t index) const;

  transport::Network* network_ = nullptr;
  DeploymentOptions options_;
  std::unique_ptr<ControllerNode> global_;
  std::vector<std::unique_ptr<ControllerNode>> aggregators_;
  std::vector<std::unique_ptr<StageHost>> stage_hosts_;
};

}  // namespace sds::runtime
