// Fixture: span stamped with wall-clock time in a `bench` path
// component. Wall clocks are legal in bench for throughput measurement,
// but not on statements that stamp a trace span — span times must come
// from the virtual clock so traces stitch with sim time.
#include <chrono>
#include <cstdint>

namespace fixture {

struct Span {
  std::int64_t start = 0;
  std::int64_t duration = 0;
};

std::int64_t wall_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // OK
}

Span stamp() {
  Span span;
  span.start = std::chrono::steady_clock::now()  // HIT span-wallclock
                   .time_since_epoch()
                   .count();
  span.duration = 1;
  // sdscheck: allow(span-wallclock)
  span.start = std::chrono::steady_clock::now().time_since_epoch().count();
  return span;
}

}  // namespace fixture
