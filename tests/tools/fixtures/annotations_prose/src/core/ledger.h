// Fixture: a comment that quotes the allow marker in prose is not a
// marker. `balance_` sits below the mutex with no SDS_GUARDED_BY, so the
// annotations pass must flag it although the comment above it mentions
// the marker.
#pragma once

#include "common/mutex.h"

namespace fixture {

class Ledger {
 private:
  Mutex mu_;  // sdscheck: allow(lock-rank)
  // Unlike `// sdscheck: allow(unguarded-field)` fields, this one is shared.
  int balance_ = 0;
};

}  // namespace fixture
