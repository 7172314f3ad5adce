// Fixture: hotpath-alloc hits under suppression lint clean.
#include <memory>

namespace fixture {

// sdscheck: hotpath
void warmup() {
  // One-time pool growth is a deliberate exception here:
  auto pool = std::make_unique<int[]>(1024);  // sdscheck: allow(hotpath-alloc)
  (void)pool;
}
// sdscheck: end-hotpath

}  // namespace fixture
