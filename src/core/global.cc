#include "core/global.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace sds::core {

namespace {

/// Accumulates per-job demand while preserving first-seen order so that
/// results are deterministic regardless of map iteration order.
class DemandBuilder {
 public:
  explicit DemandBuilder(const PolicyTable& policies) : policies_(&policies) {}

  void add(JobId job, double data, double meta) {
    const auto [it, inserted] = index_.try_emplace(job, data_.size());
    if (inserted) {
      data_.push_back({job, 0.0, policies_->weight(job)});
      meta_.push_back({job, 0.0, policies_->weight(job)});
    }
    data_[it->second].demand += std::max(data, 0.0);
    meta_[it->second].demand += std::max(meta, 0.0);
  }

  std::vector<policy::JobDemand> take_data() { return std::move(data_); }
  std::vector<policy::JobDemand> take_meta() { return std::move(meta_); }

 private:
  const PolicyTable* policies_;
  std::unordered_map<JobId, std::size_t> index_;
  std::vector<policy::JobDemand> data_;
  std::vector<policy::JobDemand> meta_;
};

}  // namespace

GlobalControllerCore::GlobalControllerCore(
    GlobalOptions options, std::unique_ptr<policy::ControlAlgorithm> algorithm)
    : options_(options),
      algorithm_(algorithm ? std::move(algorithm)
                           : std::make_unique<policy::Psfa>()),
      splitter_(options.split),
      policies_(options.budgets) {}

proto::CollectRequest GlobalControllerCore::begin_cycle() {
  ++cycle_;
  proto::CollectRequest req;
  req.cycle_id = cycle_;
  req.detailed = false;
  return req;
}

std::uint64_t GlobalControllerCore::rule_epoch() const {
  // 24 bits of controller epoch above 40 bits of cycle counter: a newer
  // controller incarnation always outranks any cycle of an older one.
  return (static_cast<std::uint64_t>(options_.epoch) << 40) |
         (cycle_ & ((1ULL << 40) - 1));
}

void GlobalControllerCore::advance_epoch() { ++options_.epoch; }

ComputeResult GlobalControllerCore::compute(
    std::span<const proto::StageMetrics> metrics) const {
  DemandBuilder demands(policies_);
  for (const auto& m : metrics) demands.add(m.job_id, m.data_iops, m.meta_iops);
  return compute_from_job_demands(demands.take_data(), demands.take_meta(),
                                  metrics);
}

ComputeResult GlobalControllerCore::compute(
    std::span<const proto::AggregatedMetrics> aggregated) const {
  DemandBuilder demands(policies_);
  for (const auto& agg : aggregated) {
    for (const auto& job : agg.jobs) {
      demands.add(job.job_id, job.data_iops, job.meta_iops);
    }
  }

  // When every report carries per-stage digests, reconstruct the stage
  // detail so rules can be split proportionally to demand, as in the
  // flat design. Job identity comes from the registry.
  std::vector<proto::StageMetrics> detail;
  bool digests_complete = !aggregated.empty();
  for (const auto& agg : aggregated) {
    if (agg.digests.size() != agg.total_stages) {
      digests_complete = false;
      break;
    }
  }
  if (digests_complete) {
    for (const auto& agg : aggregated) {
      for (const auto& digest : agg.digests) {
        const StageRecord* record = registry_.find(digest.stage_id);
        if (record == nullptr) continue;  // departed since the collect
        proto::StageMetrics m;
        m.stage_id = digest.stage_id;
        m.job_id = record->info.job_id;
        m.data_iops = digest.data_iops;
        m.meta_iops = digest.meta_iops;
        detail.push_back(m);
      }
    }
  }
  return compute_from_job_demands(demands.take_data(), demands.take_meta(),
                                  detail);
}

ComputeResult GlobalControllerCore::compute_from_job_demands(
    std::vector<policy::JobDemand> data_demands,
    std::vector<policy::JobDemand> meta_demands,
    std::span<const proto::StageMetrics> stage_detail) const {
  ComputeResult result;
  algorithm_->compute(data_demands, policies_.budgets().data_iops,
                      result.data_allocations);
  algorithm_->compute(meta_demands, policies_.budgets().meta_iops,
                      result.meta_allocations);

  const std::uint64_t epoch = rule_epoch();

  if (!stage_detail.empty()) {
    // Flat path: split each dimension by observed per-stage demand.
    std::vector<policy::StageDemand> data_stage;
    std::vector<policy::StageDemand> meta_stage;
    data_stage.reserve(stage_detail.size());
    meta_stage.reserve(stage_detail.size());
    for (const auto& m : stage_detail) {
      data_stage.push_back({m.stage_id, m.job_id, m.data_iops});
      meta_stage.push_back({m.stage_id, m.job_id, m.meta_iops});
    }
    std::vector<policy::StageLimit> data_limits;
    std::vector<policy::StageLimit> meta_limits;
    splitter_.split(result.data_allocations, data_stage, data_limits);
    splitter_.split(result.meta_allocations, meta_stage, meta_limits);
    assert(data_limits.size() == stage_detail.size());
    assert(meta_limits.size() == stage_detail.size());

    result.rules.reserve(stage_detail.size());
    for (std::size_t i = 0; i < stage_detail.size(); ++i) {
      proto::Rule rule;
      rule.stage_id = stage_detail[i].stage_id;
      rule.job_id = stage_detail[i].job_id;
      rule.data_iops_limit = data_limits[i].limit;
      rule.meta_iops_limit = meta_limits[i].limit;
      rule.epoch = epoch;
      result.rules.push_back(rule);
    }
    return result;
  }

  // Hierarchical path: uniform split over each job's registered stages.
  std::unordered_map<JobId, std::pair<double, double>> per_stage_share;
  per_stage_share.reserve(result.data_allocations.size());
  for (std::size_t i = 0; i < result.data_allocations.size(); ++i) {
    const JobId job = result.data_allocations[i].job_id;
    const auto count = registry_.job_stage_count(job);
    if (count == 0) continue;
    per_stage_share[job] = {
        result.data_allocations[i].allocation / count,
        result.meta_allocations[i].allocation / count,
    };
  }

  result.rules.reserve(registry_.size());
  registry_.for_each([&](const StageRecord& record) {
    const auto it = per_stage_share.find(record.info.job_id);
    if (it == per_stage_share.end()) return;  // job idle this cycle
    proto::Rule rule;
    rule.stage_id = record.info.stage_id;
    rule.job_id = record.info.job_id;
    rule.data_iops_limit = it->second.first;
    rule.meta_iops_limit = it->second.second;
    rule.epoch = epoch;
    result.rules.push_back(rule);
  });
  return result;
}

void GlobalControllerCore::rebuild_store_state(const MetricsStore& store) {
  StoreState& st = store_state_;
  const std::size_t n = store.size();
  st.valid = true;
  st.structure_epoch = store.structure_epoch();
  st.job_of_stage.assign(n, 0);
  st.stages_of_job.clear();
  st.data_demands.clear();
  st.meta_demands.clear();
  const auto jobs = store.job_ids();
  const auto stages = store.stage_ids();
  // Job slots in ascending stage-slot first-seen order: exactly the
  // order DemandBuilder produces for slot-ordered input, so algorithm
  // inputs (and FP demand sums) match the batch path bit-for-bit.
  std::unordered_map<JobId, std::uint32_t> job_index;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [it, inserted] = job_index.try_emplace(
        jobs[i], static_cast<std::uint32_t>(st.data_demands.size()));
    if (inserted) {
      const double w = policies_.weight(jobs[i]);
      st.data_demands.push_back({jobs[i], 0.0, w});
      st.meta_demands.push_back({jobs[i], 0.0, w});
      st.stages_of_job.emplace_back();
    }
    st.job_of_stage[i] = it->second;
    st.stages_of_job[it->second].push_back(i);
  }
  const std::size_t num_jobs = st.data_demands.size();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  st.prev_data_alloc.assign(num_jobs, kNan);
  st.prev_meta_alloc.assign(num_jobs, kNan);
  st.job_dirty.assign(num_jobs, 0);
  st.dirty_jobs.clear();
  st.dirty_jobs.reserve(num_jobs);
  st.dirty_stages.clear();
  st.dirty_stages.reserve(n);
  st.budgets = policies_.budgets();
  st.result.rules.assign(n, proto::Rule{});
  for (std::uint32_t i = 0; i < n; ++i) {
    st.result.rules[i].stage_id = stages[i];
    st.result.rules[i].job_id = jobs[i];
  }
  st.result.data_allocations.clear();
  st.result.meta_allocations.clear();
}

const ComputeResult& GlobalControllerCore::compute_from_store(
    MetricsStore& store, bool full_recompute) {
  if (!store_state_.valid ||
      store_state_.structure_epoch != store.structure_epoch()) {
    rebuild_store_state(store);
    full_recompute = true;
  }
  StoreState& st = store_state_;
  const std::size_t num_jobs = st.data_demands.size();
  ++store_stats_.cycles;

  // sdscheck: hotpath — incremental compute; every container below was
  // sized at rebuild, so steady-state cycles allocate nothing.

  // 1. Administrative input movement (budgets, QoS weights) forces the
  //    algorithm to re-run even when no demand moved.
  bool algo_forced = full_recompute;
  const Budgets& budgets = policies_.budgets();
  if (budgets.data_iops != st.budgets.data_iops ||
      budgets.meta_iops != st.budgets.meta_iops) {
    st.budgets = budgets;
    algo_forced = true;
  }
  for (std::size_t j = 0; j < num_jobs; ++j) {
    const double w = policies_.weight(st.data_demands[j].job_id);
    if (w != st.data_demands[j].weight) {
      st.data_demands[j].weight = w;
      st.meta_demands[j].weight = w;
      algo_forced = true;
    }
  }

  // 2. Dirty stages → dirty jobs.
  store.drain_dirty(st.dirty_stages);
  st.dirty_jobs.clear();
  const auto mark_job = [&st](std::uint32_t j) {
    if (st.job_dirty[j] == 0) {
      st.job_dirty[j] = 1;
      st.dirty_jobs.push_back(j);
    }
  };
  if (full_recompute) {
    for (std::uint32_t j = 0; j < num_jobs; ++j) mark_job(j);
  } else {
    for (const std::uint32_t i : st.dirty_stages) {
      mark_job(st.job_of_stage[i]);
    }
  }

  // 3. Re-sum dirty jobs' demands — a fresh ascending-order sum over
  //    the job's member stages, not a running adjustment, so the value
  //    is bit-identical to a from-scratch pass at any time.
  const auto view_data = store.data_iops();
  const auto view_meta = store.meta_iops();
  bool demand_moved = false;
  for (const std::uint32_t j : st.dirty_jobs) {
    double data_sum = 0;
    double meta_sum = 0;
    for (const std::uint32_t i : st.stages_of_job[j]) {
      data_sum += std::max(view_data[i], 0.0);
      meta_sum += std::max(view_meta[i], 0.0);
    }
    if (data_sum != st.data_demands[j].demand) {
      st.data_demands[j].demand = data_sum;
      demand_moved = true;
    }
    if (meta_sum != st.meta_demands[j].demand) {
      st.meta_demands[j].demand = meta_sum;
      demand_moved = true;
    }
    ++store_stats_.jobs_resummed;
  }

  // 4. Water-filling runs only when its inputs could have changed; jobs
  //    whose allocation moved join the re-split set.
  if (algo_forced || demand_moved) {
    algorithm_->compute(st.data_demands, budgets.data_iops,
                        st.result.data_allocations);
    algorithm_->compute(st.meta_demands, budgets.meta_iops,
                        st.result.meta_allocations);
    store_stats_.algorithm_runs += 2;
    for (std::uint32_t j = 0; j < num_jobs; ++j) {
      if (st.result.data_allocations[j].allocation != st.prev_data_alloc[j] ||
          st.result.meta_allocations[j].allocation != st.prev_meta_alloc[j]) {
        mark_job(j);
      }
    }
  }

  // 5. Re-split only the dirty jobs. Per-stage limits replicate
  //    RuleSplitter::split exactly: the job demand sum doubles as the
  //    splitter's demand_sum (same max-clamped ascending sum). Only the
  //    re-split rules get the cycle's epoch: stages accept equal epochs
  //    (VirtualStage / Limiter reject strictly-older only), so an
  //    unchanged rule re-sent with its old stamp still applies — which
  //    keeps the steady-state cycle O(dirty), not O(stages).
  const std::uint64_t epoch = rule_epoch();
  const bool proportional =
      splitter_.strategy() == policy::SplitStrategy::kProportional;
  for (const std::uint32_t j : st.dirty_jobs) {
    const double data_alloc = st.result.data_allocations[j].allocation;
    const double meta_alloc = st.result.meta_allocations[j].allocation;
    const double data_sum = st.data_demands[j].demand;
    const double meta_sum = st.meta_demands[j].demand;
    const auto& members = st.stages_of_job[j];
    const auto stage_count = static_cast<double>(members.size());
    for (const std::uint32_t i : members) {
      proto::Rule& rule = st.result.rules[i];
      rule.data_iops_limit =
          proportional && data_sum > 0
              ? data_alloc * std::max(view_data[i], 0.0) / data_sum
              : data_alloc / stage_count;
      rule.meta_iops_limit =
          proportional && meta_sum > 0
              ? meta_alloc * std::max(view_meta[i], 0.0) / meta_sum
              : meta_alloc / stage_count;
      rule.epoch = epoch;
    }
    st.prev_data_alloc[j] = data_alloc;
    st.prev_meta_alloc[j] = meta_alloc;
    st.job_dirty[j] = 0;
    ++store_stats_.jobs_resplit;
    store_stats_.stages_resplit += members.size();
  }

  // sdscheck: end-hotpath
  return st.result;
}

std::unordered_map<ControllerId, proto::EnforceBatch>
GlobalControllerCore::group_rules(const ComputeResult& result) const {
  std::unordered_map<ControllerId, proto::EnforceBatch> batches;
  for (const auto& rule : result.rules) {
    const StageRecord* record = registry_.find(rule.stage_id);
    const ControllerId via = record ? record->via : ControllerId::invalid();
    auto& batch = batches[via];
    batch.cycle_id = cycle_;
    batch.rules.push_back(rule);
  }
  return batches;
}

}  // namespace sds::core
