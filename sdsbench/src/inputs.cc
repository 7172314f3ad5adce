#include "inputs.h"

#include <numeric>

#include "common/rng.h"

namespace sdsbench {

namespace {

// SplitMix64 finalizer: a bijective mix, so distinct inputs stay distinct.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::string_view purpose) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : purpose) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  return mix64(seed ^ mix64(h));
}

double Demand::total_data() const {
  return std::accumulate(data.begin(), data.end(), 0.0);
}

double Demand::total_meta() const {
  return std::accumulate(meta.begin(), meta.end(), 0.0);
}

Demand draw_demand(std::uint64_t seed, std::size_t stages) {
  sds::Rng rng(stream_seed(seed, "demand"));
  Demand out;
  out.data.reserve(stages);
  out.meta.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    out.data.push_back(rng.uniform(500.0, 1500.0));
    out.meta.push_back(rng.uniform(50.0, 150.0));
  }
  return out;
}

JobChurn::JobChurn(std::uint64_t seed, std::uint64_t period)
    : seed_(stream_seed(seed, "churn")), period_(period == 0 ? 1 : period) {}

double JobChurn::factor(std::size_t job, std::uint64_t cycle) const {
  // Epoch e of job j covers cycles [e*period - j%period, ...): the level
  // is a pure function of (seed, job, epoch).
  const std::uint64_t epoch = (cycle + job % period_) / period_;
  const std::uint64_t bits = mix64(seed_ ^ mix64(job * 0x9e3779b97f4a7c15ull ^ epoch));
  return 0.5 + unit_interval(bits);
}

sds::core::Budgets budgets_for(const Demand& demand, double share) {
  return {share * demand.total_data(), share * demand.total_meta()};
}

sds::fault::FaultPlan churn_plan(std::uint64_t seed) {
  sds::fault::FaultPlan plan;
  plan.seed = stream_seed(seed, "fault-plan");
  plan.quorum = 0.9;
  plan.phase_timeout = sds::millis(50);
  plan.stage_mtbf_s = 60;
  plan.stage_downtime_s = 2;
  plan.drop_probability = 0.01;
  plan.delay_probability = 0.05;
  plan.delay = sds::micros(200);
  return plan;
}

}  // namespace sdsbench
