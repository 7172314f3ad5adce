// Fixture rank table (parsed by sdscheck like the real one).
#pragma once

namespace sds {

enum class LockRank : unsigned short {
  kUnranked = 0,
  kRanked = 10,
};

}  // namespace sds
