// Lock ranks and the debug-build lock-order validator.
//
// Every sds::Mutex in the tree is stamped with a LockRank at its
// declaration. The rank encodes the mutex's position in the repo-wide
// acquisition order: a thread may only acquire a mutex whose rank is
// STRICTLY GREATER than every ranked mutex it already holds. Because
// the order is a single global hierarchy, any execution that obeys it
// is deadlock-free by construction — two threads can never wait on each
// other's locks in opposite orders.
//
// The hierarchy is enforced twice:
//   - statically, by `tools/sdscheck --pass=lockgraph`, which extracts
//     every Mutex declaration and every MutexLock nesting from source
//     and rejects rank inversions and cycles at lint time; and
//   - at runtime, by LockOrderValidator below: a thread-local stack of
//     held locks checked on every acquire. The checks compile to
//     nothing unless SDS_LOCK_ORDER_CHECKS is defined (CMake turns it
//     on for Debug builds, TSan builds, and -DSDS_LOCK_ORDER=ON), so
//     Release binaries pay zero bytes and zero cycles.
//
// Rank table (low = outer, acquired first; see DESIGN.md §15 for the
// full rationale per rank):
//
//   kRuntimeServer        runtime Global/Aggregator/StageHost state
//   kCycleStats           core::CycleStats recent-cycle ring
//   kRpcDispatcher        rpc::Dispatcher gather registry
//   kRpcGather            rpc::Gather per-wave state
//   kChaosNetwork         fault::ChaosNetwork delay queue (wraps inner
//                         transports, so it ranks above them... i.e.
//                         below them numerically: chaos locks first)
//   kTransportNetwork     transport::InProcNetwork address registry
//   kTransportEndpoint    per-endpoint connection/handler state and
//                         in-process outboxes (held while a chunk is
//                         pushed onto a peer's Queue)
//   kStage                stage::PosixStage limiter window
//   kMonitor              monitor::ResourceMonitor collect window
//   kQueue                common::Queue<T> (bounded MPMC)
//   kThreadPool           ThreadPool worker queues + sleep mutex
//   kWaitGroup            common::WaitGroup counter
//   kTelemetryReporter    TelemetryReporter lifecycle flags
//   kTelemetryRegistry    MetricsRegistry instrument index
//   kTelemetryTracer      SpanTracer / FlightRecorder rings
//   kTelemetryInstrument  per-instrument HistogramMetric lock
//   kLog                  the log writer (logging is legal anywhere)
//   kLeaf                 terminal scratch locks: nothing may be
//                         acquired while one is held
//
// kUnranked opts a mutex out of order checking (test scaffolding and
// short-lived locals); sdscheck requires an explicit
// `// sdscheck: allow(lock-rank)` marker to leave a src/ mutex
// unranked.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sds {

enum class LockRank : std::uint16_t {
  kUnranked = 0,
  kRuntimeServer = 10,
  kCycleStats = 20,
  kRpcDispatcher = 30,
  kRpcGather = 40,
  kChaosNetwork = 50,
  kTransportNetwork = 60,
  kTransportEndpoint = 70,
  kStage = 80,
  kMonitor = 90,
  kQueue = 100,
  kThreadPool = 110,
  kWaitGroup = 130,
  kTelemetryReporter = 140,
  kTelemetryRegistry = 150,
  kTelemetryTracer = 160,
  kTelemetryInstrument = 170,
  kLog = 180,
  kLeaf = 190,
};

[[nodiscard]] const char* to_string(LockRank rank);

namespace lock_order {

#if defined(SDS_LOCK_ORDER_CHECKS) && SDS_LOCK_ORDER_CHECKS

/// Called by Mutex/MutexLock BEFORE blocking on the underlying mutex:
/// a would-be deadlock reports instead of hanging. Unranked locks are
/// pushed for release bookkeeping but never compared.
void note_acquire(const void* mu, LockRank rank);

/// Called after the underlying mutex is released; removes the most
/// recent stack entry for `mu` (tolerates out-of-LIFO release).
void note_release(const void* mu);

/// Number of locks the calling thread currently holds (tests).
[[nodiscard]] std::size_t held_count();

/// Violation hook. The default handler prints the message and aborts;
/// tests install a capturing handler. Returns the previous handler.
using ViolationHandler = void (*)(const char* message);
ViolationHandler set_violation_handler(ViolationHandler handler);

#else

inline void note_acquire(const void* /*mu*/, LockRank /*rank*/) {}
inline void note_release(const void* /*mu*/) {}

#endif  // SDS_LOCK_ORDER_CHECKS

}  // namespace lock_order
}  // namespace sds
