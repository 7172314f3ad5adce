// Fixture: ambient randomness inside a `sim` path component.
#include <cstdlib>
#include <random>

namespace fixture {

int roll() {
  std::random_device entropy;   // HIT sim-rand
  (void)entropy;
  return rand() % 6;            // HIT sim-rand
}

// Seeded PRNGs are fine — determinism comes from the owned seed.
int roll_seeded(unsigned seed) {
  std::mt19937_64 rng(seed);
  return static_cast<int>(rng() % 6);
}

}  // namespace fixture
