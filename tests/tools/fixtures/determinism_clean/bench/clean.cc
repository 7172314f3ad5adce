// Fixture: idiomatic bench code — wall clocks are fine here,
// and sorted emission of unordered data is the approved pattern.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace fixture {

void report(const std::unordered_map<int, double>& latencies,
            const std::vector<int>& ids) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  for (int id : sorted) {
    auto it = latencies.find(id);
    if (it != latencies.end()) std::printf("%d %.3f\n", id, it->second);
  }
  (void)t0;
}

}  // namespace fixture
