// Fixture: unseeded randomness inside a `fault` path component.
// Expected: fault-rand on the marked lines, nothing else.
#include <cstdlib>
#include <random>

namespace fixture {

double draw_fate() {
  std::random_device entropy;                       // HIT fault-rand
  (void)entropy;
  return static_cast<double>(rand()) / RAND_MAX;    // HIT fault-rand
}

// Seeded PRNGs are the sanctioned source: pure in the plan seed.
double draw_fate_seeded(unsigned long long seed) {
  std::mt19937_64 rng(seed);
  return static_cast<double>(rng() % 1000) / 1000.0;
}

}  // namespace fixture
