// Fixture: nested hot-path regions. The inner region (using the
// hotpath-begin/hotpath-end alias spelling) closes before the outer one
// does — an allocation after the inner end must still fire, because the
// outer region is still open. Both regions are balanced, so no
// unbalanced-directive errors.
#include <vector>

namespace fixture {

// sdscheck: hotpath
void outer_work(std::vector<int>& out) {
  out.clear();

  // sdscheck: hotpath-begin
  int* inner = new int(1);  // HIT hotpath-alloc (line 15)
  delete inner;
  // sdscheck: hotpath-end

  int* still_hot = new int(2);  // HIT hotpath-alloc (line 19)
  delete still_hot;
}
// sdscheck: end-hotpath

// Outside every region again: unrestricted.
int* relax() { return new int(3); }

}  // namespace fixture
