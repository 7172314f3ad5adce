// Fixture: span stamped with wall-clock time in a `sim` path
// component — fires span-wallclock on top of the general sim-wallclock
// determinism rule.
#include <chrono>
#include <cstdint>

namespace fixture {

struct Span {
  std::int64_t start = 0;
};

Span stamp(std::int64_t virtual_now) {
  Span span;
  span.start = std::chrono::steady_clock::now()  // HIT span-wallclock
                   .time_since_epoch()
                   .count();
  span.start = virtual_now;  // OK: virtual clock
  return span;
}

}  // namespace fixture
