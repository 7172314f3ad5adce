// Fixture: unordered iteration in a `bench` path component.
// bench/ gets only the unordered-iter rule — steady_clock is fine here.
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace fixture {

void report() {
  auto t0 = std::chrono::steady_clock::now();  // OK in bench
  std::unordered_map<int, double> latencies;
  for (const auto& [id, ms] : latencies) {     // HIT unordered-iter
    std::printf("%d %.3f\n", id, ms);
  }
  (void)t0;
}

}  // namespace fixture
