// Fixture: an allocation-lean hot path — must produce no
// findings even with the region markers active.
#include <cstddef>
#include <string_view>
#include <vector>

namespace fixture {

struct Cell {
  alignas(8) unsigned char storage[64];
};

// sdscheck: hotpath
// Placement new into pooled storage and container reuse: allowed.
void run(std::vector<Cell>& pool, std::size_t slot) {
  new (pool[slot].storage) int(42);
  pool[slot] = Cell{};
}

// The store/incremental-PSFA reuse idioms: reference-bound buffers,
// amortized push_back into capacity reserved outside the region, and
// string_view (no ownership) all pass.
void drain(std::vector<unsigned>& scratch, std::string_view tag) {
  scratch.clear();
  scratch.push_back(1u);
  (void)tag;
}

// A function *returning* a container by value is a declaration, not a
// per-event construction; the allocation is charged where it is called.
std::vector<unsigned> snapshot();
// sdscheck: end-hotpath

}  // namespace fixture
