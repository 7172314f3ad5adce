// MetricsStore — columnar (struct-of-arrays) storage for per-stage
// metrics, keyed by dense stage index.
//
// The collect→compute hot path at 100k–1M stages is dominated by
// per-message decode + allocate + full re-merge work. The store removes
// it: stages are bound once to contiguous column slots, and every
// subsequent report — full StageMetrics frame or StageMetricsDelta —
// updates the columns in place with no allocation once warm.
//
// Two views per metric column:
//   * reported  — the exact last-reported value (IEEE bit pattern
//                 preserved). This is the delta-chain base: a
//                 StageMetricsDelta applies on top of it and must
//                 reproduce the sender's value bit-for-bit.
//   * compute   — what the control algorithm reads. It follows the
//                 reported value only when the move exceeds
//                 `activity_threshold` (ops/s), so metric jitter below
//                 the threshold never dirties a job. With threshold 0
//                 the views are numerically identical.
// Splitting the views is what makes incremental PSFA bit-identical to a
// full recompute at ANY threshold: both read the same compute view, so
// thresholding changes which cycles recompute, never what they compute.
//
// Dirty tracking is per stage: a slot whose compute view moved joins the
// dirty list exactly once per drain. `drain_dirty` returns indices
// sorted ascending so downstream consumers (incremental demand re-sums,
// FP-order-sensitive) are deterministic regardless of arrival order.
//
// Not thread-safe; callers serialize (the live global server holds its
// own mutex, the simulator is single-threaded).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "proto/messages.h"

namespace sds::core {

/// Outcome of folding one StageMetricsDelta into the store.
enum class DeltaStatus {
  kApplied,
  /// No slot for the stage (never bound / no index hint).
  kUnknownStage,
  /// delta.cycle_id <= the slot's last applied cycle: a duplicate or
  /// out-of-order frame (e.g. a ChaosNetwork re-delivery). Dropped.
  kDuplicate,
  /// delta.base_cycle_id != the slot's last applied cycle: the chain
  /// broke (a lost report). The sender must refresh with a full frame.
  kBaseMismatch,
  /// A reconstructed value is NaN or infinite; the slot keeps its last
  /// report, as for every other refusal.
  kNonFinite,
};

struct MetricsStoreOptions {
  /// Compute-view update threshold (ops/s): a reported move of at most
  /// this magnitude leaves the compute view (and the dirty set)
  /// untouched. 0 = follow every numeric change.
  double activity_threshold = 0.0;
};

class MetricsStore {
 public:
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  explicit MetricsStore(MetricsStoreOptions options = {})
      : options_(options) {}

  /// Drop all slots (topology change); bumps the structure epoch so
  /// consumers caching per-slot state rebuild.
  void reset(std::size_t expected_stages = 0);

  /// Bind a stage to a dense slot (idempotent; returns the slot index).
  /// Binding is the cold path — do it at registration, not per cycle.
  std::uint32_t bind(StageId stage, JobId job);

  [[nodiscard]] std::uint32_t index_of(StageId stage) const {
    const auto it = index_.find(stage.value());
    return it == index_.end() ? kInvalidIndex : it->second;
  }

  /// Fold a full frame into the stage's slot. Reports older than the
  /// slot's last applied cycle are dropped (duplicate / out-of-order).
  /// Returns the slot index, or kInvalidIndex for an unbound stage.
  std::uint32_t update(const proto::StageMetrics& m);
  /// Same, with the slot already resolved (skips the id lookup).
  void update_at(std::uint32_t index, const proto::StageMetrics& m);

  /// Fold a delta into the stage's slot. `conn_hint` names the slot for
  /// deltas that omit the stage id (per-stage connections); a delta
  /// carrying an explicit stage id wins over the hint.
  DeltaStatus apply_delta(const proto::StageMetricsDelta& d,
                          std::uint32_t conn_hint = kInvalidIndex);

  /// Reconstruct the last-reported StageMetrics for a slot (refresh /
  /// debugging; not on the hot path).
  [[nodiscard]] proto::StageMetrics reported(std::uint32_t index) const;

  [[nodiscard]] std::size_t size() const { return stage_ids_.size(); }
  [[nodiscard]] bool empty() const { return stage_ids_.empty(); }
  /// Bumped by reset() and every new bind(): consumers caching per-slot
  /// derived state compare it to detect structural change.
  [[nodiscard]] std::uint64_t structure_epoch() const {
    return structure_epoch_;
  }

  // Columns (all size() long, indexed by slot).
  [[nodiscard]] std::span<const StageId> stage_ids() const {
    return stage_ids_;
  }
  [[nodiscard]] std::span<const JobId> job_ids() const { return job_ids_; }
  [[nodiscard]] std::span<const double> data_iops() const {
    return view_data_iops_;
  }
  [[nodiscard]] std::span<const double> meta_iops() const {
    return view_meta_iops_;
  }
  [[nodiscard]] std::span<const std::uint64_t> last_cycle() const {
    return last_cycle_;
  }

  [[nodiscard]] bool any_dirty() const { return !dirty_list_.empty(); }
  /// Move the dirty slot set into `out`, sorted ascending, and clear it.
  void drain_dirty(std::vector<std::uint32_t>& out);
  /// Clear the dirty set without consuming it (full-recompute ablation).
  void clear_dirty();

  struct Counters {
    std::uint64_t full_updates = 0;
    std::uint64_t stale_full_frames = 0;
    std::uint64_t deltas_applied = 0;
    std::uint64_t deltas_duplicate = 0;
    std::uint64_t deltas_base_mismatch = 0;
    std::uint64_t deltas_unknown_stage = 0;
    std::uint64_t deltas_non_finite = 0;
    std::uint64_t view_updates = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void fold(std::uint32_t i, std::uint64_t cycle, double data_iops,
            double meta_iops, double data_limit, double meta_limit);
  void mark_dirty(std::uint32_t i);

  MetricsStoreOptions options_;
  std::unordered_map<std::uint32_t, std::uint32_t> index_;
  std::vector<StageId> stage_ids_;
  std::vector<JobId> job_ids_;
  // Reported columns: exact last report (delta-chain base).
  std::vector<double> rep_data_iops_;
  std::vector<double> rep_meta_iops_;
  std::vector<double> rep_data_limit_;
  std::vector<double> rep_meta_limit_;
  std::vector<std::uint64_t> last_cycle_;
  // Compute-view columns (threshold-gated).
  std::vector<double> view_data_iops_;
  std::vector<double> view_meta_iops_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> dirty_list_;
  std::uint64_t structure_epoch_ = 0;
  Counters counters_;
};

}  // namespace sds::core
