// Fixture: wall-clock reads inside a `sim` path component.
// Expected: sim-wallclock on the marked lines, nothing else.
#include <chrono>
#include <ctime>

namespace fixture {

long wall_now() {
  auto t = std::chrono::system_clock::now();              // HIT sim-wallclock
  auto m = std::chrono::steady_clock::now();              // HIT sim-wallclock
  std::time_t raw = std::time(nullptr);                   // HIT sim-wallclock
  (void)t;
  (void)m;
  return static_cast<long>(raw);
}

// Mentions of system_clock in comments and "steady_clock" in strings
// must NOT be flagged:
const char* label() { return "system_clock steady_clock time()"; }

// Identifier substrings must not match: `timeline` is not `time`.
int timeline(int runtime) { return runtime; }

}  // namespace fixture
