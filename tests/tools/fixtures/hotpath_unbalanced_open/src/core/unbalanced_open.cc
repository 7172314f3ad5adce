// Fixture: a region opened and never closed — reported at the
// begin line, not at end of file.
namespace fixture {

// sdscheck: hotpath
void stuck(int* out) { *out = 1; }

}  // namespace fixture
