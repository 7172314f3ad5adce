// Fixture: thread spawns inside a `sim` path component.
#include <future>
#include <thread>

namespace fixture {

void spawn() {
  std::thread worker([] {});                    // HIT sim-thread
  auto handle = std::async([] { return 1; });   // HIT sim-thread
  worker.join();
  (void)handle;
}

// Unqualified identifiers named `thread` (e.g. a loop variable) are not
// spawns and must not be flagged.
int thread_count(int thread) { return thread; }

}  // namespace fixture
