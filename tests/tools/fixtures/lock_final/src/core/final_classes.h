// Fixture: two `final` classes that each own a `mu_`. The lock graph
// must key them by class name, not by the `final` specifier: the
// unranked one is reported as Unranked::mu_, and Ranked::mu_ is a
// separate, clean node.
#pragma once

#include "common/lock_rank.h"
#include "common/mutex.h"

namespace fixture {

class Base {};

class Ranked final {
 private:
  Mutex mu_{LockRank::kRanked};
  int value_ SDS_GUARDED_BY(mu_) = 0;
};

class Unranked final : public Base {
 private:
  Mutex mu_;
  int value_ SDS_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture
