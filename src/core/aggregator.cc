#include "core/aggregator.h"

#include <algorithm>
#include <unordered_map>

namespace sds::core {

AggregatorCore::AggregatorCore(
    AggregatorOptions options,
    std::unique_ptr<policy::ControlAlgorithm> local_algorithm)
    : options_(options),
      algorithm_(local_algorithm ? std::move(local_algorithm)
                                 : std::make_unique<policy::Psfa>()),
      splitter_(policy::SplitStrategy::kProportional),
      store_(MetricsStoreOptions{options.activity_threshold}) {}

proto::AggregatedMetrics merge_summaries(
    std::uint64_t cycle_id, ControllerId from,
    std::span<const proto::AggregatedMetrics> children) {
  proto::AggregatedMetrics merged;
  merged.cycle_id = cycle_id;
  merged.from = from;
  std::unordered_map<JobId, std::size_t> index;
  std::size_t digest_count = 0;
  for (const auto& child : children) {
    merged.total_stages += child.total_stages;
    digest_count += child.digests.size();
    for (const auto& job : child.jobs) {
      const auto [it, inserted] =
          index.try_emplace(job.job_id, merged.jobs.size());
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
  for (const auto& child : children) {
    merged.digests.insert(merged.digests.end(), child.digests.begin(),
                          child.digests.end());
  }
  return merged;
}

proto::AggregatedMetrics AggregatorCore::aggregate(
    std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics) const {
  proto::AggregatedMetrics out;
  out.cycle_id = cycle_id;
  out.from = options_.id;
  out.total_stages = static_cast<std::uint32_t>(metrics.size());

  std::unordered_map<JobId, std::size_t> index;
  for (const auto& m : metrics) {
    const auto [it, inserted] = index.try_emplace(m.job_id, out.jobs.size());
    if (inserted) {
      proto::JobMetrics job;
      job.job_id = m.job_id;
      out.jobs.push_back(job);
    }
    auto& job = out.jobs[it->second];
    job.data_iops += std::max(m.data_iops, 0.0);
    job.meta_iops += std::max(m.meta_iops, 0.0);
    ++job.stage_count;
  }
  if (options_.include_digests) {
    out.digests.reserve(metrics.size());
    for (const auto& m : metrics) {
      proto::StageDigest digest;
      digest.stage_id = m.stage_id;
      digest.data_iops = static_cast<float>(std::max(m.data_iops, 0.0));
      digest.meta_iops = static_cast<float>(std::max(m.meta_iops, 0.0));
      out.digests.push_back(digest);
    }
  }
  return out;
}

proto::MetricsBatch AggregatorCore::passthrough(
    std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics) const {
  proto::MetricsBatch out;
  out.cycle_id = cycle_id;
  out.from = options_.id;
  out.entries.assign(metrics.begin(), metrics.end());
  return out;
}

void AggregatorCore::rebuild_store_state() {
  StoreState& st = store_state_;
  const std::size_t n = store_.size();
  st.valid = true;
  st.structure_epoch = store_.structure_epoch();
  st.job_of_stage.assign(n, 0);
  st.stages_of_job.clear();
  st.out.jobs.clear();
  st.out.digests.clear();
  const auto jobs = store_.job_ids();
  const auto stages = store_.stage_ids();
  std::unordered_map<JobId, std::uint32_t> job_index;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [it, inserted] = job_index.try_emplace(
        jobs[i], static_cast<std::uint32_t>(st.out.jobs.size()));
    if (inserted) {
      proto::JobMetrics job;
      job.job_id = jobs[i];
      st.out.jobs.push_back(job);
      st.stages_of_job.emplace_back();
    }
    st.job_of_stage[i] = it->second;
    st.stages_of_job[it->second].push_back(i);
  }
  for (std::uint32_t j = 0; j < st.out.jobs.size(); ++j) {
    st.out.jobs[j].stage_count =
        static_cast<std::uint32_t>(st.stages_of_job[j].size());
  }
  if (options_.include_digests) {
    st.out.digests.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      st.out.digests[i].stage_id = stages[i];
    }
  }
  st.job_dirty.assign(st.out.jobs.size(), 0);
  st.dirty_jobs.clear();
  st.dirty_jobs.reserve(st.out.jobs.size());
  st.dirty_stages.clear();
  st.dirty_stages.reserve(n);
  st.out.from = options_.id;
  st.out.total_stages = static_cast<std::uint32_t>(n);
  // First call after a rebuild re-sums everything.
  for (std::uint32_t j = 0; j < st.out.jobs.size(); ++j) {
    st.job_dirty[j] = 1;
    st.dirty_jobs.push_back(j);
  }
}

const proto::AggregatedMetrics& AggregatorCore::aggregate_from_store(
    std::uint64_t cycle_id) {
  const bool rebuilt = !store_state_.valid ||
                       store_state_.structure_epoch != store_.structure_epoch();
  if (rebuilt) rebuild_store_state();
  StoreState& st = store_state_;
  st.out.cycle_id = cycle_id;

  // sdscheck: hotpath — steady-state summary refresh; all buffers were
  // sized at rebuild, so nothing here allocates once warm.
  store_.drain_dirty(st.dirty_stages);
  if (!rebuilt) {
    st.dirty_jobs.clear();
    for (const std::uint32_t i : st.dirty_stages) {
      const std::uint32_t j = st.job_of_stage[i];
      if (st.job_dirty[j] == 0) {
        st.job_dirty[j] = 1;
        st.dirty_jobs.push_back(j);
      }
    }
  }

  const auto view_data = store_.data_iops();
  const auto view_meta = store_.meta_iops();
  for (const std::uint32_t j : st.dirty_jobs) {
    double data_sum = 0;
    double meta_sum = 0;
    for (const std::uint32_t i : st.stages_of_job[j]) {
      data_sum += std::max(view_data[i], 0.0);
      meta_sum += std::max(view_meta[i], 0.0);
    }
    st.out.jobs[j].data_iops = data_sum;
    st.out.jobs[j].meta_iops = meta_sum;
    st.job_dirty[j] = 0;
  }
  if (options_.include_digests) {
    if (rebuilt) {
      for (std::uint32_t i = 0; i < store_.size(); ++i) {
        st.out.digests[i].data_iops =
            static_cast<float>(std::max(view_data[i], 0.0));
        st.out.digests[i].meta_iops =
            static_cast<float>(std::max(view_meta[i], 0.0));
      }
    } else {
      for (const std::uint32_t i : st.dirty_stages) {
        st.out.digests[i].data_iops =
            static_cast<float>(std::max(view_data[i], 0.0));
        st.out.digests[i].meta_iops =
            static_cast<float>(std::max(view_meta[i], 0.0));
      }
    }
  }
  // sdscheck: end-hotpath
  return st.out;
}

proto::EnforceAck AggregatorCore::merge_acks(
    std::uint64_t cycle_id, std::span<const proto::EnforceAck> acks) const {
  proto::EnforceAck out;
  out.cycle_id = cycle_id;
  for (const auto& ack : acks) {
    if (ack.cycle_id == cycle_id) out.applied += ack.applied;
  }
  return out;
}

std::vector<proto::Rule> AggregatorCore::local_compute(
    std::uint64_t cycle_id, std::span<const proto::StageMetrics> metrics,
    std::uint64_t now_ns) const {
  std::vector<proto::Rule> rules;
  if (lease_.valid_until_ns < now_ns) return rules;  // lease expired

  // Same shape as the global flat path, scoped to this subtree and the
  // leased budgets.
  std::unordered_map<JobId, std::size_t> index;
  std::vector<policy::JobDemand> data_demands;
  std::vector<policy::JobDemand> meta_demands;
  for (const auto& m : metrics) {
    const auto [it, inserted] = index.try_emplace(m.job_id, data_demands.size());
    if (inserted) {
      data_demands.push_back({m.job_id, 0.0, policies_.weight(m.job_id)});
      meta_demands.push_back({m.job_id, 0.0, policies_.weight(m.job_id)});
    }
    data_demands[it->second].demand += std::max(m.data_iops, 0.0);
    meta_demands[it->second].demand += std::max(m.meta_iops, 0.0);
  }

  std::vector<policy::JobAllocation> data_alloc;
  std::vector<policy::JobAllocation> meta_alloc;
  algorithm_->compute(data_demands, lease_.data_budget, data_alloc);
  algorithm_->compute(meta_demands, lease_.meta_budget, meta_alloc);

  std::vector<policy::StageDemand> data_stage;
  std::vector<policy::StageDemand> meta_stage;
  data_stage.reserve(metrics.size());
  meta_stage.reserve(metrics.size());
  for (const auto& m : metrics) {
    data_stage.push_back({m.stage_id, m.job_id, m.data_iops});
    meta_stage.push_back({m.stage_id, m.job_id, m.meta_iops});
  }
  std::vector<policy::StageLimit> data_limits;
  std::vector<policy::StageLimit> meta_limits;
  splitter_.split(data_alloc, data_stage, data_limits);
  splitter_.split(meta_alloc, meta_stage, meta_limits);

  rules.reserve(metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    proto::Rule rule;
    rule.stage_id = metrics[i].stage_id;
    rule.job_id = metrics[i].job_id;
    rule.data_iops_limit = data_limits[i].limit;
    rule.meta_iops_limit = meta_limits[i].limit;
    rule.epoch = lease_.cycle_id << 8 | (cycle_id & 0xFF);
    rules.push_back(rule);
  }
  return rules;
}

std::vector<proto::Rule> AggregatorCore::compute_own_rules(
    std::uint64_t cycle_id,
    std::span<const proto::AggregatedMetrics> all_summaries,
    std::span<const proto::StageMetrics> local_metrics) const {
  // Determinism: merge in ascending peer-id order so every peer sees the
  // same job ordering and therefore computes identical allocations.
  std::vector<const proto::AggregatedMetrics*> ordered;
  ordered.reserve(all_summaries.size());
  for (const auto& s : all_summaries) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->from < b->from; });

  std::unordered_map<JobId, std::size_t> index;
  std::vector<policy::JobDemand> data_demands;
  std::vector<policy::JobDemand> meta_demands;
  std::unordered_map<JobId, std::uint32_t> global_stage_counts;
  for (const auto* summary : ordered) {
    for (const auto& job : summary->jobs) {
      const auto [it, inserted] = index.try_emplace(job.job_id, data_demands.size());
      if (inserted) {
        data_demands.push_back({job.job_id, 0.0, policies_.weight(job.job_id)});
        meta_demands.push_back({job.job_id, 0.0, policies_.weight(job.job_id)});
      }
      data_demands[it->second].demand += job.data_iops;
      meta_demands[it->second].demand += job.meta_iops;
      global_stage_counts[job.job_id] += job.stage_count;
    }
  }

  std::vector<policy::JobAllocation> data_alloc;
  std::vector<policy::JobAllocation> meta_alloc;
  algorithm_->compute(data_demands, policies_.budgets().data_iops, data_alloc);
  algorithm_->compute(meta_demands, policies_.budgets().meta_iops, meta_alloc);

  // Scale the global per-job allocation down to this peer's share: the
  // fraction of the job's global demand observed locally (uniform by
  // stage count when the job is idle).
  std::unordered_map<JobId, std::pair<double, double>> local_share;
  {
    std::unordered_map<JobId, std::pair<double, double>> local_demand;
    std::unordered_map<JobId, std::uint32_t> local_stages;
    for (const auto& m : local_metrics) {
      auto& d = local_demand[m.job_id];
      d.first += std::max(m.data_iops, 0.0);
      d.second += std::max(m.meta_iops, 0.0);
      ++local_stages[m.job_id];
    }
    for (std::size_t i = 0; i < data_alloc.size(); ++i) {
      const JobId job = data_alloc[i].job_id;
      const auto ld = local_demand.find(job);
      if (ld == local_demand.end()) continue;  // job not present locally
      const double global_data = data_demands[i].demand;
      const double global_meta = meta_demands[i].demand;
      const auto total_stages = global_stage_counts[job];
      const double stage_frac =
          total_stages ? static_cast<double>(local_stages[job]) / total_stages : 0.0;
      const double data_frac =
          global_data > 0 ? ld->second.first / global_data : stage_frac;
      const double meta_frac =
          global_meta > 0 ? ld->second.second / global_meta : stage_frac;
      local_share[job] = {data_alloc[i].allocation * data_frac,
                          meta_alloc[i].allocation * meta_frac};
    }
  }

  // Split this peer's job shares across its own stages by demand.
  std::vector<policy::JobAllocation> local_data_alloc;
  std::vector<policy::JobAllocation> local_meta_alloc;
  for (const auto& [job, share] : local_share) {
    local_data_alloc.push_back({job, share.first});
    local_meta_alloc.push_back({job, share.second});
  }
  std::vector<policy::StageDemand> data_stage;
  std::vector<policy::StageDemand> meta_stage;
  for (const auto& m : local_metrics) {
    data_stage.push_back({m.stage_id, m.job_id, m.data_iops});
    meta_stage.push_back({m.stage_id, m.job_id, m.meta_iops});
  }
  std::vector<policy::StageLimit> data_limits;
  std::vector<policy::StageLimit> meta_limits;
  splitter_.split(local_data_alloc, data_stage, data_limits);
  splitter_.split(local_meta_alloc, meta_stage, meta_limits);

  std::vector<proto::Rule> rules;
  rules.reserve(local_metrics.size());
  for (std::size_t i = 0; i < local_metrics.size(); ++i) {
    proto::Rule rule;
    rule.stage_id = local_metrics[i].stage_id;
    rule.job_id = local_metrics[i].job_id;
    rule.data_iops_limit = data_limits[i].limit;
    rule.meta_iops_limit = meta_limits[i].limit;
    rule.epoch = cycle_id;
    rules.push_back(rule);
  }
  return rules;
}

}  // namespace sds::core
