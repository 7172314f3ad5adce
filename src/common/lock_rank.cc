#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>

namespace sds {

const char* to_string(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kRuntimeServer: return "kRuntimeServer";
    case LockRank::kCycleStats: return "kCycleStats";
    case LockRank::kRpcDispatcher: return "kRpcDispatcher";
    case LockRank::kRpcGather: return "kRpcGather";
    case LockRank::kChaosNetwork: return "kChaosNetwork";
    case LockRank::kTransportNetwork: return "kTransportNetwork";
    case LockRank::kTransportEndpoint: return "kTransportEndpoint";
    case LockRank::kStage: return "kStage";
    case LockRank::kMonitor: return "kMonitor";
    case LockRank::kQueue: return "kQueue";
    case LockRank::kThreadPool: return "kThreadPool";
    case LockRank::kWaitGroup: return "kWaitGroup";
    case LockRank::kTelemetryReporter: return "kTelemetryReporter";
    case LockRank::kTelemetryRegistry: return "kTelemetryRegistry";
    case LockRank::kTelemetryTracer: return "kTelemetryTracer";
    case LockRank::kTelemetryInstrument: return "kTelemetryInstrument";
    case LockRank::kLog: return "kLog";
    case LockRank::kLeaf: return "kLeaf";
  }
  return "?";
}

#if defined(SDS_LOCK_ORDER_CHECKS) && SDS_LOCK_ORDER_CHECKS

namespace lock_order {
namespace {

struct Held {
  const void* mu;
  LockRank rank;
};

// One stack per thread. A plain vector: the stack is tiny (2-3 deep in
// the deepest real paths) and only ever touched by its own thread.
thread_local std::vector<Held> t_held;

void default_handler(const char* message) {
  std::fprintf(stderr, "%s\n", message);
  std::abort();
}

ViolationHandler g_handler = default_handler;

}  // namespace

void note_acquire(const void* mu, LockRank rank) {
  if (rank != LockRank::kUnranked) {
    for (const Held& held : t_held) {
      if (held.rank != LockRank::kUnranked && held.rank >= rank) {
        char msg[256];
        std::snprintf(msg, sizeof(msg),
                      "lock-order violation: acquiring a %s (%u) mutex while "
                      "holding a %s (%u) mutex; acquisition ranks must be "
                      "strictly increasing (see common/lock_rank.h)",
                      to_string(rank), static_cast<unsigned>(rank),
                      to_string(held.rank), static_cast<unsigned>(held.rank));
        g_handler(msg);
        break;  // report once per acquire; a test handler may return
      }
    }
  }
  t_held.push_back({mu, rank});
}

void note_release(const void* mu) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mu == mu) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

std::size_t held_count() { return t_held.size(); }

ViolationHandler set_violation_handler(ViolationHandler handler) {
  ViolationHandler previous = g_handler;
  g_handler = handler == nullptr ? default_handler : handler;
  return previous;
}

}  // namespace lock_order

#endif  // SDS_LOCK_ORDER_CHECKS

}  // namespace sds
