// sdslint fixture: an end marker with no matching begin.
namespace fixture {

void fine() {}
// sdslint: end-hotpath
void also_fine() {}
// sdslint: hotpath-end

}  // namespace fixture
