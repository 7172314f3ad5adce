#include "core/registry.h"

#include <algorithm>

namespace sds::core {

Status Registry::add(StageRecord record) {
  const StageId id = record.info.stage_id;
  if (!id.valid()) return Status::invalid_argument("invalid stage id");
  const auto [it, inserted] = records_.try_emplace(id, std::move(record));
  if (!inserted) {
    return Status::already_exists("stage " + std::to_string(id.value()));
  }
  order_.push_back(id);
  ++job_counts_[it->second.info.job_id];
  return Status::ok();
}

Status Registry::remove(StageId stage_id) {
  const auto it = records_.find(stage_id);
  if (it == records_.end()) {
    return Status::not_found("stage " + std::to_string(stage_id.value()));
  }
  const JobId job = it->second.info.job_id;
  if (const auto jc = job_counts_.find(job); jc != job_counts_.end()) {
    if (--jc->second == 0) job_counts_.erase(jc);
  }
  records_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), stage_id), order_.end());
  return Status::ok();
}

const StageRecord* Registry::find(StageId stage_id) const {
  const auto it = records_.find(stage_id);
  return it == records_.end() ? nullptr : &it->second;
}

std::uint32_t Registry::job_stage_count(JobId job) const {
  const auto it = job_counts_.find(job);
  return it == job_counts_.end() ? 0 : it->second;
}

std::vector<JobId> Registry::jobs() const {
  std::vector<JobId> out;
  out.reserve(job_counts_.size());
  std::unordered_map<JobId, bool> seen;
  for (const StageId id : order_) {
    const JobId job = records_.at(id).info.job_id;
    if (!seen[job]) {
      seen[job] = true;
      out.push_back(job);
    }
  }
  return out;
}

}  // namespace sds::core
