// Fixture: idiomatic simulation code — must produce no findings.
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

// Simulated time is plain integer nanoseconds owned by the engine.
struct Clock {
  long long now_ns = 0;
  void advance(long long delta) { now_ns += delta; }
};

// Seeded PRNG: deterministic given the experiment config.
int jitter(unsigned seed) {
  std::mt19937_64 rng(seed);
  return static_cast<int>(rng() % 100);
}

// Keyed unordered lookups are fine; emitting sorted output goes through
// an ordered container.
void emit(const std::unordered_map<int, std::string>& index,
          const std::vector<int>& ids) {
  std::map<int, std::string> ordered;
  for (int id : ids) {
    auto it = index.find(id);
    if (it != index.end()) ordered[id] = it->second;
  }
  for (const auto& [id, name] : ordered) {
    std::printf("%d %s\n", id, name.c_str());
  }
}

}  // namespace fixture
