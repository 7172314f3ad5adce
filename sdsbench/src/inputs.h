// Seeded inputs. Everything a workload feeds the program — per-stage
// demand, the live workload's job churn, the fault plan — is generated
// here from the --seed argument; the program never sees the seed itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/policy_table.h"
#include "fault/plan.h"

namespace sdsbench {

/// Independent 64-bit stream seed per purpose, so adding a new input
/// never shifts the draws of an existing one.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::string_view purpose);

/// Per-stage base demand, drawn from the simulator's default
/// distribution: data U[500, 1500) ops/s, metadata U[50, 150) ops/s.
struct Demand {
  std::vector<double> data;
  std::vector<double> meta;

  [[nodiscard]] double total_data() const;
  [[nodiscard]] double total_meta() const;
};
[[nodiscard]] Demand draw_demand(std::uint64_t seed, std::size_t stages);

/// Job-correlated churn as a pure function of (seed, job, cycle): job j
/// changes its demand level every `period` cycles, at cycles staggered
/// by job index, so jobs/period jobs move each cycle and the same jobs
/// move on every run with the same seed. The level is a factor in
/// [0.5, 1.5) applied to the job's base demand.
class JobChurn {
 public:
  JobChurn(std::uint64_t seed, std::uint64_t period);

  [[nodiscard]] double factor(std::size_t job, std::uint64_t cycle) const;

 private:
  std::uint64_t seed_;
  std::uint64_t period_;
};

/// Budgets at `share` × the total base demand in each dimension.
[[nodiscard]] sds::core::Budgets budgets_for(const Demand& demand,
                                             double share);

/// fig7_resilience's built-in plan — stage MTBF 60 s with 2 s outages,
/// 1% drops, 5% delays of 200 us, 90% quorum, 50 ms phase deadline —
/// with its injection seed drawn from `seed`.
[[nodiscard]] sds::fault::FaultPlan churn_plan(std::uint64_t seed);

}  // namespace sdsbench
