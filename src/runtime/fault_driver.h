// FaultDriver — replays a compiled FaultPlan's crash/restart timeline
// against a live Deployment.
//
// The simulator injects outages by consulting the CompiledPlan at event
// time; the runtime side replays the *same* timeline as explicit
// kill/restart calls on the deployment. The driver keeps a virtual
// clock that only the caller advances: `advance_to(t)` applies, in
// timestamp order, every transition scheduled at or before `t` and then
// returns. Nothing here waits on wall time, so tests step through a
// scenario as fast as the control plane reacts, and the sequence of
// transitions is identical to the simulator's for the same plan — the
// basis of the sim-vs-runtime cross-validation test.
//
// Entity mapping: a plan's `stage` index addresses a *stage host* in the
// runtime (the unit that can actually crash). Deployments used for
// cross-validation set stages_per_host = 1 so the two sides agree
// exactly; `aggregator` indices map one-to-one either way.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fault/plan.h"
#include "runtime/deployment.h"

namespace sds::runtime {

class FaultDriver {
 public:
  /// Compile `plan` against the deployment's topology (hosts count as
  /// stages) over [0, horizon) of virtual time.
  FaultDriver(Deployment& deployment, const fault::FaultPlan& plan,
              Nanos horizon = seconds(60));

  FaultDriver(const FaultDriver&) = delete;
  FaultDriver& operator=(const FaultDriver&) = delete;

  /// Apply every kill/restart transition scheduled in (now, t], in
  /// timestamp order, then set the virtual clock to `t`. Returns the
  /// first error (remaining transitions at the same call are skipped).
  Status advance_to(Nanos t);

  /// Virtual time of the next pending transition; CompiledPlan::kNever
  /// when the timeline is exhausted.
  [[nodiscard]] Nanos next_event_at() const;

  [[nodiscard]] std::size_t events_applied() const { return applied_; }
  [[nodiscard]] std::size_t events_total() const { return events_.size(); }
  [[nodiscard]] Nanos now() const { return now_; }
  [[nodiscard]] const fault::CompiledPlan& compiled() const {
    return compiled_;
  }

  /// Called on every kill transition with a short description (e.g.
  /// "kill-host-3") BEFORE the kill is applied — the flight-recorder dump
  /// hook: wire it to the root ControllerNode::dump_flight so the span
  /// ring is preserved while the spans leading up to the fault are still
  /// in it.
  void set_fault_hook(std::function<void(std::string_view)> hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  enum class Kind : std::uint8_t {
    kKillHost,
    kRestartHost,
    kKillAggregator,
    kRestartAggregator,
  };

  struct Event {
    Nanos at{0};
    Kind kind = Kind::kKillHost;
    std::size_t index = 0;
  };

  Status apply(const Event& event);

  Deployment* deployment_;
  std::function<void(std::string_view)> fault_hook_;
  fault::CompiledPlan compiled_;
  std::vector<Event> events_;  // sorted by (at, kind, index)
  std::size_t applied_ = 0;
  Nanos now_{0};
};

}  // namespace sds::runtime
