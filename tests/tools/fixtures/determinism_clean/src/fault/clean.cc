// Fixture: idiomatic fault-plan code — must produce no findings.
// Everything is virtual time plus a seeded PRNG, exactly the contract
// fault/plan.h documents.
#include <cstdint>
#include <random>
#include <vector>

namespace fixture {

// Virtual Nanos from the run epoch; no clock is ever read.
struct Outage {
  long long from_ns = 0;
  long long until_ns = 0;
};

// All draws derive from the plan seed: compile-time expansion of a
// Poisson churn schedule is a pure function of (seed, stage).
std::vector<Outage> expand_churn(std::uint64_t seed, int stages,
                                 long long horizon_ns, long long mtbf_ns) {
  std::vector<Outage> outages;
  for (int stage = 0; stage < stages; ++stage) {
    std::mt19937_64 rng(seed ^ static_cast<std::uint64_t>(stage));
    std::exponential_distribution<double> gap(1.0 / static_cast<double>(mtbf_ns));
    long long t = static_cast<long long>(gap(rng));
    while (t < horizon_ns) {
      outages.push_back({t, t + 1'000'000});
      t += static_cast<long long>(gap(rng)) + 1'000'000;
    }
  }
  return outages;
}

// Mentions of system_clock or rand() in comments and strings are fine:
const char* contract() { return "no system_clock, no rand()"; }

}  // namespace fixture
