// Fixture: an end marker with no matching begin.
namespace fixture {

void fine() {}
// sdscheck: end-hotpath
void also_fine() {}
// sdscheck: hotpath-end

}  // namespace fixture
