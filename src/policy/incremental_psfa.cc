#include "policy/incremental_psfa.h"

#include <algorithm>

namespace sds::policy {

namespace {

bool same_inputs(const std::vector<JobDemand>& cached,
                 std::span<const JobDemand> demands, double cached_budget,
                 double budget) {
  if (cached_budget != budget) return false;
  if (cached.size() != demands.size()) return false;
  return std::equal(cached.begin(), cached.end(), demands.begin());
}

}  // namespace

// sdscheck: hotpath — per-cycle allocation decision; cache hits replay
// the stored vector and entry buffers are reused via assign, so nothing
// allocates once the cache slots are warm.
void IncrementalPsfa::compute(std::span<const JobDemand> demands,
                              double budget,
                              std::vector<JobAllocation>& out) const {
  for (const Entry& entry : cache_) {
    if (entry.valid && same_inputs(entry.demands, demands, entry.budget,
                                   budget)) {
      ++hits_;
      out.assign(entry.allocations.begin(), entry.allocations.end());
      return;
    }
  }
  ++misses_;
  inner_->compute(demands, budget, out);
  Entry& slot = cache_[next_slot_];
  next_slot_ = (next_slot_ + 1) % kCacheEntries;
  slot.demands.assign(demands.begin(), demands.end());
  slot.budget = budget;
  slot.allocations.assign(out.begin(), out.end());
  slot.valid = true;
}
// sdscheck: end-hotpath

}  // namespace sds::policy
