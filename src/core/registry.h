// Membership registry: the stages a controller orchestrates, with the
// routing information needed to reach them (direct connection for flat
// designs, owning aggregator for hierarchical ones).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "proto/messages.h"

namespace sds::core {

struct StageRecord {
  proto::StageInfo info;
  /// Connection over which the stage is reached (live runtime).
  ConnId conn;
  /// Aggregator responsible for the stage (hierarchical designs);
  /// invalid for directly-connected stages.
  ControllerId via;
};

class Registry {
 public:
  /// Register a stage; duplicate StageIds are rejected.
  Status add(StageRecord record);

  /// Remove a stage (e.g. its job finished or its node failed).
  Status remove(StageId stage_id);

  [[nodiscard]] const StageRecord* find(StageId stage_id) const;
  [[nodiscard]] bool contains(StageId stage_id) const { return find(stage_id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return order_.size(); }

  /// Stage ids in registration order (deterministic iteration).
  [[nodiscard]] const std::vector<StageId>& stages() const { return order_; }

  /// Number of stages belonging to `job`.
  [[nodiscard]] std::uint32_t job_stage_count(JobId job) const;

  /// Distinct jobs present, in first-registration order.
  [[nodiscard]] std::vector<JobId> jobs() const;

  /// Visit every record in registration order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const StageId id : order_) fn(records_.at(id));
  }

 private:
  std::unordered_map<StageId, StageRecord> records_;
  std::unordered_map<JobId, std::uint32_t> job_counts_;
  std::vector<StageId> order_;
};

}  // namespace sds::core
