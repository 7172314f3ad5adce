// IncrementalPsfa — memoizing wrapper that makes PSFA's water-filling
// incremental behind the unchanged ControlAlgorithm interface.
//
// PSFA's output is a pure function of (demands, budget). Across
// control cycles of a steady system the inputs repeat — most cycles no
// job's demand moves past the store's activity threshold — so the
// wrapper keeps the last few (input, output) pairs and replays the
// cached allocation vector on an exact input match instead of re-running
// the weighted water-filling rounds. Only when the inputs differ (the
// active set or the capped set CAN have changed) does the inner
// algorithm run.
//
// Correctness: a hit replays bytes the inner algorithm itself produced
// for identical inputs, so results are bit-identical to always
// recomputing — asserted by the property tests and the
// --psfa-full-recompute bench ablation.
//
// The cache holds kCacheEntries slots (default 2: the controller core
// alternates data- and metadata-dimension calls with different budgets,
// which would thrash a single slot). Replacement is round-robin.
//
// Not thread-safe: callers serialize (the simulator is single-threaded;
// the live global server computes under its own mutex).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "policy/algorithm.h"
#include "policy/psfa.h"

namespace sds::policy {

class IncrementalPsfa final : public ControlAlgorithm {
 public:
  static constexpr std::size_t kCacheEntries = 2;

  explicit IncrementalPsfa(PsfaOptions options = {})
      : inner_(std::make_unique<Psfa>(options)) {}
  /// Wrap an arbitrary inner algorithm (it must be deterministic).
  explicit IncrementalPsfa(std::unique_ptr<ControlAlgorithm> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return "incremental-psfa";
  }

  void compute(std::span<const JobDemand> demands, double budget,
               std::vector<JobAllocation>& out) const override;

  [[nodiscard]] const ControlAlgorithm& inner() const { return *inner_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::vector<JobDemand> demands;
    double budget = 0;
    std::vector<JobAllocation> allocations;
    bool valid = false;
  };

  std::unique_ptr<ControlAlgorithm> inner_;
  mutable Entry cache_[kCacheEntries];
  mutable std::size_t next_slot_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace sds::policy
