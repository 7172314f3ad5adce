// Fixture: wall-clock reads inside a `fault` path component.
// Expected: fault-wallclock on the marked lines, nothing else.
#include <chrono>
#include <ctime>

namespace fixture {

long stamp_outage() {
  auto t = std::chrono::system_clock::now();     // HIT fault-wallclock
  auto m = std::chrono::steady_clock::now();     // HIT fault-wallclock
  std::time_t raw = std::time(nullptr);          // HIT fault-wallclock
  (void)t;
  (void)m;
  return static_cast<long>(raw);
}

// Identifier substrings must not match: `timeout` is not `time`.
long rearm(long phase_timeout) { return phase_timeout * 2; }

}  // namespace fixture
