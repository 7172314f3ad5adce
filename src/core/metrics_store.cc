#include "core/metrics_store.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sds::core {

void MetricsStore::reset(std::size_t expected_stages) {
  index_.clear();
  stage_ids_.clear();
  job_ids_.clear();
  rep_data_iops_.clear();
  rep_meta_iops_.clear();
  rep_data_limit_.clear();
  rep_meta_limit_.clear();
  last_cycle_.clear();
  view_data_iops_.clear();
  view_meta_iops_.clear();
  dirty_.clear();
  dirty_list_.clear();
  if (expected_stages > 0) {
    index_.reserve(expected_stages);
    stage_ids_.reserve(expected_stages);
    job_ids_.reserve(expected_stages);
    rep_data_iops_.reserve(expected_stages);
    rep_meta_iops_.reserve(expected_stages);
    rep_data_limit_.reserve(expected_stages);
    rep_meta_limit_.reserve(expected_stages);
    last_cycle_.reserve(expected_stages);
    view_data_iops_.reserve(expected_stages);
    view_meta_iops_.reserve(expected_stages);
    dirty_.reserve(expected_stages);
    dirty_list_.reserve(expected_stages);
  }
  ++structure_epoch_;
}

std::uint32_t MetricsStore::bind(StageId stage, JobId job) {
  const auto [it, inserted] =
      index_.try_emplace(stage.value(), static_cast<std::uint32_t>(size()));
  if (!inserted) return it->second;
  stage_ids_.push_back(stage);
  job_ids_.push_back(job);
  rep_data_iops_.push_back(0.0);
  rep_meta_iops_.push_back(0.0);
  rep_data_limit_.push_back(proto::kUnlimited);
  rep_meta_limit_.push_back(proto::kUnlimited);
  last_cycle_.push_back(0);
  view_data_iops_.push_back(0.0);
  view_meta_iops_.push_back(0.0);
  dirty_.push_back(0);
  // A slot just bound should be visible to the next incremental compute
  // even if its first report is all zeros.
  dirty_list_.push_back(it->second);
  dirty_.back() = 1;
  ++structure_epoch_;
  return it->second;
}

// sdscheck: hotpath — per-report store updates; no heap allocation once
// the dirty list's capacity is warm (reserved at reset/bind).

void MetricsStore::mark_dirty(std::uint32_t i) {
  if (dirty_[i] != 0) return;
  dirty_[i] = 1;
  dirty_list_.push_back(i);
}

void MetricsStore::fold(std::uint32_t i, std::uint64_t cycle,
                        double data_iops, double meta_iops, double data_limit,
                        double meta_limit) {
  rep_data_iops_[i] = data_iops;
  rep_meta_iops_[i] = meta_iops;
  rep_data_limit_[i] = data_limit;
  rep_meta_limit_[i] = meta_limit;
  last_cycle_[i] = cycle;
  const double threshold = options_.activity_threshold;
  bool moved = false;
  if (std::abs(data_iops - view_data_iops_[i]) > threshold) {
    view_data_iops_[i] = data_iops;
    moved = true;
  }
  if (std::abs(meta_iops - view_meta_iops_[i]) > threshold) {
    view_meta_iops_[i] = meta_iops;
    moved = true;
  }
  if (moved) {
    ++counters_.view_updates;
    mark_dirty(i);
  }
}

std::uint32_t MetricsStore::update(const proto::StageMetrics& m) {
  const std::uint32_t i = index_of(m.stage_id);
  if (i == kInvalidIndex) return kInvalidIndex;
  update_at(i, m);
  return i;
}

void MetricsStore::update_at(std::uint32_t index,
                             const proto::StageMetrics& m) {
  if (m.cycle_id < last_cycle_[index]) {
    ++counters_.stale_full_frames;
    return;
  }
  ++counters_.full_updates;
  fold(index, m.cycle_id, m.data_iops, m.meta_iops, m.data_limit,
       m.meta_limit);
}

DeltaStatus MetricsStore::apply_delta(const proto::StageMetricsDelta& d,
                                      std::uint32_t conn_hint) {
  std::uint32_t i = conn_hint;
  if (d.stage_id.has_value()) i = index_of(*d.stage_id);
  if (i == kInvalidIndex || i >= size()) {
    ++counters_.deltas_unknown_stage;
    return DeltaStatus::kUnknownStage;
  }
  if (d.cycle_id <= last_cycle_[i]) {
    ++counters_.deltas_duplicate;
    return DeltaStatus::kDuplicate;
  }
  if (d.base_cycle_id != last_cycle_[i]) {
    ++counters_.deltas_base_mismatch;
    return DeltaStatus::kBaseMismatch;
  }
  using Delta = proto::StageMetricsDelta;
  double data_iops = rep_data_iops_[i];
  double meta_iops = rep_meta_iops_[i];
  double data_limit = rep_data_limit_[i];
  double meta_limit = rep_meta_limit_[i];
  if ((d.fields & Delta::kDataIops) != 0) {
    data_iops = std::bit_cast<double>(std::bit_cast<std::uint64_t>(data_iops) +
                                      d.deltas[0]);
  }
  if ((d.fields & Delta::kMetaIops) != 0) {
    meta_iops = std::bit_cast<double>(std::bit_cast<std::uint64_t>(meta_iops) +
                                      d.deltas[1]);
  }
  if ((d.fields & Delta::kDataLimit) != 0) {
    data_limit = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(data_limit) + d.deltas[2]);
  }
  if ((d.fields & Delta::kMetaLimit) != 0) {
    meta_limit = std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(meta_limit) + d.deltas[3]);
  }
  if (!std::isfinite(data_iops) || !std::isfinite(meta_iops) ||
      !std::isfinite(data_limit) || !std::isfinite(meta_limit)) {
    ++counters_.deltas_non_finite;
    return DeltaStatus::kNonFinite;
  }
  ++counters_.deltas_applied;
  fold(i, d.cycle_id, data_iops, meta_iops, data_limit, meta_limit);
  return DeltaStatus::kApplied;
}

void MetricsStore::drain_dirty(std::vector<std::uint32_t>& out) {
  out.clear();
  std::swap(out, dirty_list_);
  std::sort(out.begin(), out.end());
  for (const std::uint32_t i : out) dirty_[i] = 0;
  if (dirty_list_.capacity() < out.capacity()) {
    // Keep the warm capacity: swap handed our reserved buffer to `out`.
    dirty_list_.reserve(out.capacity());
  }
}

// sdscheck: end-hotpath

void MetricsStore::clear_dirty() {
  for (const std::uint32_t i : dirty_list_) dirty_[i] = 0;
  dirty_list_.clear();
}

proto::StageMetrics MetricsStore::reported(std::uint32_t index) const {
  proto::StageMetrics m;
  m.cycle_id = last_cycle_[index];
  m.stage_id = stage_ids_[index];
  m.job_id = job_ids_[index];
  m.data_iops = rep_data_iops_[index];
  m.meta_iops = rep_meta_iops_[index];
  m.data_limit = rep_data_limit_[index];
  m.meta_limit = rep_meta_limit_[index];
  return m;
}

}  // namespace sds::core
