// Fixture: real-time sleeps inside a `sim` path component.
#include <chrono>
#include <thread>
#include <unistd.h>

namespace fixture {

void nap() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // HIT sim-sleep
  usleep(100);                                                // HIT sim-sleep
  sleep(1);                                                   // HIT sim-sleep
}

// `sleep` as a substring of another identifier is fine.
void sleepless(int oversleep) { (void)oversleep; }

}  // namespace fixture
