#include "runtime/deployment.h"

#include <algorithm>
#include <thread>

#include "workload/generators.h"

namespace sds::runtime {

Result<std::unique_ptr<Deployment>> Deployment::create(
    transport::Network& network, const DeploymentOptions& options) {
  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->network_ = &network;
  deployment->options_ = options;

  ControllerNodeOptions global_options;
  global_options.core.budgets = options.budgets;
  global_options.phase_timeout = options.phase_timeout;
  global_options.collect_quorum = options.collect_quorum;
  global_options.local_decisions = options.local_decisions;
  if (options.local_decisions && options.num_aggregators == 0) {
    return Status::invalid_argument(
        "local_decisions requires a hierarchical topology");
  }
  if (options.delta_metrics && options.delta_refresh == 0) {
    return Status::invalid_argument("delta_metrics requires delta_refresh > 0");
  }
  deployment->global_ = std::make_unique<ControllerNode>(
      network, "global", global_options);
  SDS_RETURN_IF_ERROR(deployment->global_->start(
      transport::EndpointOptions{options.max_connections, 0}));

  for (std::size_t a = 0; a < options.num_aggregators; ++a) {
    auto agg = deployment->make_aggregator(a);
    if (!agg.is_ok()) return agg.status();
    deployment->aggregators_.push_back(std::move(agg).value());
  }

  const std::size_t num_hosts =
      (options.num_stages + options.stages_per_host - 1) /
      std::max<std::size_t>(1, options.stages_per_host);
  for (std::size_t h = 0; h < num_hosts; ++h) {
    auto host = deployment->make_stage_host(h);
    if (!host.is_ok()) return host.status();
    deployment->stage_hosts_.push_back(std::move(host).value());
  }

  for (auto& host : deployment->stage_hosts_) {
    SDS_RETURN_IF_ERROR(host->register_all());
  }

  // Wait for forwarded registrations to land at the global controller.
  const Nanos deadline = SystemClock::instance().now() + seconds(10);
  while (deployment->global_->registered_stages() < options.num_stages) {
    if (SystemClock::instance().now() > deadline) {
      return Status::deadline_exceeded(
          "global controller saw only " +
          std::to_string(deployment->global_->registered_stages()) + "/" +
          std::to_string(options.num_stages) + " registrations");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return deployment;
}

Deployment::~Deployment() { shutdown(); }

Result<std::unique_ptr<ControllerNode>> Deployment::make_aggregator(
    std::size_t index) const {
  ControllerNodeOptions agg_options;
  agg_options.id = ControllerId{static_cast<std::uint32_t>(index)};
  agg_options.upstream_address = "global";
  agg_options.phase_timeout = options_.phase_timeout;
  auto agg = std::make_unique<ControllerNode>(
      *network_, "agg" + std::to_string(index), agg_options);
  SDS_RETURN_IF_ERROR(
      agg->start(transport::EndpointOptions{options_.max_connections, 0}));
  return agg;
}

Result<std::unique_ptr<StageHost>> Deployment::make_stage_host(
    std::size_t index) const {
  StageHostOptions host_options;
  host_options.delta_metrics = options_.delta_metrics;
  host_options.delta_refresh = options_.delta_refresh;
  if (options_.num_aggregators == 0) {
    host_options.controller_addresses = {"global"};
  } else {
    // Stages pick their aggregator round-robin by host; failover walks
    // the rest of the list.
    for (std::size_t a = 0; a < options_.num_aggregators; ++a) {
      const std::size_t pick = (index + a) % options_.num_aggregators;
      host_options.controller_addresses.push_back("agg" +
                                                  std::to_string(pick));
    }
  }
  auto host = std::make_unique<StageHost>(
      *network_, "host" + std::to_string(index), host_options);
  SDS_RETURN_IF_ERROR(host->start());

  const std::size_t first = index * options_.stages_per_host;
  const std::size_t last =
      std::min(options_.num_stages, first + options_.stages_per_host);
  for (std::size_t i = first; i < last; ++i) {
    proto::StageInfo info;
    info.stage_id = StageId{static_cast<std::uint32_t>(i)};
    info.node_id = NodeId{static_cast<std::uint32_t>(i)};
    info.job_id = JobId{static_cast<std::uint32_t>(
        i / std::max<std::size_t>(1, options_.stages_per_job))};
    info.hostname = "host" + std::to_string(index);
    stage::DemandFn data;
    stage::DemandFn meta;
    if (options_.demand_factory) {
      data = options_.demand_factory(info.stage_id, stage::Dimension::kData);
      meta = options_.demand_factory(info.stage_id, stage::Dimension::kMeta);
    } else {
      data = workload::constant(options_.data_demand);
      meta = workload::constant(options_.meta_demand);
    }
    SDS_RETURN_IF_ERROR(host->add_stage(info, std::move(data), std::move(meta)));
  }
  return host;
}

Status Deployment::kill_aggregator(std::size_t index) {
  if (index >= aggregators_.size()) {
    return Status::out_of_range("aggregator " + std::to_string(index));
  }
  aggregators_[index]->shutdown();
  return Status::ok();
}

Status Deployment::restart_aggregator(std::size_t index) {
  if (index >= aggregators_.size()) {
    return Status::out_of_range("aggregator " + std::to_string(index));
  }
  auto agg = make_aggregator(index);
  if (!agg.is_ok()) return agg.status();
  aggregators_[index] = std::move(agg).value();
  return Status::ok();
}

Status Deployment::kill_stage_host(std::size_t index) {
  if (index >= stage_hosts_.size()) {
    return Status::out_of_range("stage host " + std::to_string(index));
  }
  stage_hosts_[index]->shutdown();
  return Status::ok();
}

Status Deployment::restart_stage_host(std::size_t index) {
  if (index >= stage_hosts_.size()) {
    return Status::out_of_range("stage host " + std::to_string(index));
  }
  auto host = make_stage_host(index);
  if (!host.is_ok()) return host.status();
  SDS_RETURN_IF_ERROR(host.value()->register_all());
  stage_hosts_[index] = std::move(host).value();
  return Status::ok();
}

Result<double> Deployment::stage_limit(StageId stage,
                                       stage::Dimension dim) const {
  for (const auto& host : stage_hosts_) {
    auto limit = host->stage_limit(stage, dim);
    if (limit.is_ok()) return limit;
  }
  return Status::not_found("stage " + std::to_string(stage.value()));
}

void Deployment::shutdown() {
  // Stages first (they would otherwise try to fail over), then the
  // middle tier, then the global controller.
  for (auto& host : stage_hosts_) host->shutdown();
  for (auto& agg : aggregators_) agg->shutdown();
  if (global_) global_->shutdown();
}

}  // namespace sds::runtime
