// Fixture: allocations inside a hot-path region. This path has
// no `sim`/`bench` component, so only hotpath-alloc can fire — and only
// between the region markers.
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fixture {

// Outside any region: allocation is unrestricted.
int* setup() { return new int(7); }

// sdscheck: hotpath
void per_event(std::size_t n) {
  int* scratch = new int[n];                          // HIT hotpath-alloc
  auto owned = std::make_unique<int>(3);              // HIT hotpath-alloc
  std::function<void()> cb = [] {};                   // HIT hotpath-alloc
  void* raw = std::malloc(n);                         // HIT hotpath-alloc
  std::string label = std::to_string(n);              // HIT hotpath-alloc
  std::vector<int> fresh;                             // HIT hotpath-alloc
  fresh.push_back(1);
  delete[] scratch;
  (void)owned;
  (void)label;
  cb();
  std::free(raw);
}

// Placement new constructs into caller-owned storage: allowed.
void emplace_cell(void* cell) { new (cell) int(0); }

// Binding by reference (the buffer-reuse idiom) does not allocate.
void drain(std::vector<int>& out) { out.clear(); }
// sdscheck: end-hotpath

// After the region closes, allocation is unrestricted again.
int* teardown() { return new int(9); }

}  // namespace fixture
