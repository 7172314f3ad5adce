// A hand-built 3-level live control tree on the in-process transport: a
// root ("global"), one super-aggregator ("super") below it, `aggregators`
// aggregators ("agg<a>") below that, and one stage host per aggregator
// holding a contiguous run of the stages — the simulator's
// num_super_aggregators = 1 shape. Deployment builds two levels only, so
// the 3-level tests build their trees with this.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/controller_node.h"
#include "runtime/stage_host.h"
#include "telemetry/span_tracer.h"
#include "transport/inproc.h"
#include "workload/generators.h"

namespace sds::runtime {

struct ThreeLevelTreeOptions {
  std::size_t stages = 8;
  std::size_t aggregators = 2;
  std::size_t stages_per_job = 4;
  core::Budgets budgets{4000.0, 400.0};
  /// Demand per stage and dimension; 1000 / 100 ops/s when empty.
  std::function<stage::DemandFn(StageId, stage::Dimension)> demand;
  /// Stage hosts answer collects with StageMetricsDelta frames.
  bool delta_metrics = false;
  /// When set, every component traces into it: the root on track 0, the
  /// super-aggregator on 1, aggregator a on 2 + a, and its host after.
  telemetry::SpanTracer* tracer = nullptr;
};

class ThreeLevelTree {
 public:
  ThreeLevelTree(transport::InProcNetwork& net, ThreeLevelTreeOptions options)
      : options_(std::move(options)) {
    std::uint32_t track = 0;
    ControllerNodeOptions root;
    root.core.budgets = options_.budgets;
    root.telemetry = telemetry(track++);
    root_ = std::make_unique<ControllerNode>(net, "global", root);
    ControllerNodeOptions super;
    super.id = ControllerId{0};
    super.upstream_address = "global";
    super.telemetry = telemetry(track++);
    super_ = std::make_unique<ControllerNode>(net, "super", super);
    for (std::size_t a = 0; a < options_.aggregators; ++a) {
      ControllerNodeOptions agg;
      agg.id = ControllerId{static_cast<std::uint32_t>(a)};
      agg.upstream_address = "super";
      agg.telemetry = telemetry(track++);
      aggregators_.push_back(std::make_unique<ControllerNode>(
          net, "agg" + std::to_string(a), agg));
    }
    for (std::size_t a = 0; a < options_.aggregators; ++a) {
      StageHostOptions host;
      host.controller_addresses = {"agg" + std::to_string(a)};
      host.auto_failover = false;
      host.delta_metrics = options_.delta_metrics;
      host.telemetry = telemetry(track++);
      hosts_.push_back(std::make_unique<StageHost>(
          net, "host" + std::to_string(a), host));
    }
  }

  ~ThreeLevelTree() {
    for (auto& host : hosts_) host->shutdown();
    for (auto& agg : aggregators_) agg->shutdown();
    super_->shutdown();
    root_->shutdown();
  }

  ThreeLevelTree(const ThreeLevelTree&) = delete;
  ThreeLevelTree& operator=(const ThreeLevelTree&) = delete;

  /// Start every tier top-down, register the stages and wait until the
  /// root knows all of them.
  Status start() {
    SDS_RETURN_IF_ERROR(root_->start());
    SDS_RETURN_IF_ERROR(super_->start());
    for (auto& agg : aggregators_) SDS_RETURN_IF_ERROR(agg->start());
    const std::size_t n = options_.stages;
    const std::size_t a_count = aggregators_.size();
    for (std::size_t a = 0; a < a_count; ++a) {
      StageHost& host = *hosts_[a];
      SDS_RETURN_IF_ERROR(host.start());
      // Contiguous subtrees, as the simulator assigns them.
      for (std::size_t i = a * n / a_count; i < (a + 1) * n / a_count; ++i) {
        const StageId stage{static_cast<std::uint32_t>(i)};
        const JobId job{static_cast<std::uint32_t>(i / options_.stages_per_job)};
        SDS_RETURN_IF_ERROR(host.add_stage(
            {stage, NodeId{stage.value()}, job, "host" + std::to_string(a)},
            demand(stage, stage::Dimension::kData),
            demand(stage, stage::Dimension::kMeta)));
      }
      SDS_RETURN_IF_ERROR(host.register_all());
    }
    const Nanos deadline = SystemClock::instance().now() + seconds(5);
    while (root_->registered_stages() < n) {
      if (SystemClock::instance().now() > deadline) {
        return Status::deadline_exceeded("forwarded registrations missing");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::ok();
  }

  [[nodiscard]] ControllerNode& root() { return *root_; }
  [[nodiscard]] ControllerNode& super() { return *super_; }
  [[nodiscard]] std::vector<std::unique_ptr<ControllerNode>>& aggregators() {
    return aggregators_;
  }
  [[nodiscard]] StageHost& host(std::size_t a) { return *hosts_[a]; }

  /// Limit currently enforced at a stage (searches every host).
  [[nodiscard]] Result<double> stage_limit(StageId stage,
                                           stage::Dimension dim) const {
    for (const auto& host : hosts_) {
      auto limit = host->stage_limit(stage, dim);
      if (limit.is_ok()) return limit;
    }
    return Status::not_found("stage " + std::to_string(stage.value()));
  }

 private:
  [[nodiscard]] telemetry::TelemetryOptions telemetry(std::uint32_t track) const {
    telemetry::TelemetryOptions out;
    out.enabled = options_.tracer != nullptr;
    out.tracer = options_.tracer;
    out.track = track;
    return out;
  }
  [[nodiscard]] stage::DemandFn demand(StageId stage,
                                       stage::Dimension dim) const {
    if (options_.demand) return options_.demand(stage, dim);
    return workload::constant(dim == stage::Dimension::kData ? 1000.0 : 100.0);
  }

  ThreeLevelTreeOptions options_;
  std::unique_ptr<ControllerNode> root_;
  std::unique_ptr<ControllerNode> super_;
  std::vector<std::unique_ptr<ControllerNode>> aggregators_;
  std::vector<std::unique_ptr<StageHost>> hosts_;
};

}  // namespace sds::runtime
