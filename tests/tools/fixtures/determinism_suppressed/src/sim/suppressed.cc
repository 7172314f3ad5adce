// Fixture: every hit carries an allow() suppression, so the
// file must lint clean.
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>

namespace fixture {

void suppressed() {
  // Same-line suppression form:
  auto t = std::chrono::steady_clock::now();  // sdscheck: allow(sim-wallclock)
  int r = rand();                             // sdscheck: allow(sim-rand)
  // Standalone-comment form covers the next code line:
  // sdscheck: allow(sim-sleep)
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Multiple rules in one directive:
  // sdscheck: allow(sim-thread, sim-wallclock)
  std::thread watcher([] { std::chrono::system_clock::now(); });
  watcher.join();
  (void)t;
  (void)r;
}

void suppressed_iter() {
  std::unordered_map<int, std::string> table;
  // sdscheck: allow(unordered-iter)
  for (const auto& [key, value] : table) {
    std::printf("%d=%s\n", key, value.c_str());
  }
}

}  // namespace fixture
