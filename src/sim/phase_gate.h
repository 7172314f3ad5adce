// PhaseGate — the phase-close rule of one simulated controller phase.
//
// A controller fans a request out to `expected` peers (its stages or its
// child controllers) and gathers one reply per peer: collect reports on
// the way up, enforce acks after the rules went down. The phase closes
// when every reply is in. Under a fault plan it can also close on a
// deadline: below the plan's quorum the deadline re-arms up to
// `max_deadline_extensions` times, then the phase force-closes degraded
// with `missing()` replies outstanding.
//
// Sans-I/O: the gate never touches the engine. The caller feeds it
// replies (`accept`) and deadline firings (`on_deadline`) and acts on
// the answer — close the phase, or schedule the deadline again.
//
// Two steps open a phase, because a controller learns of a new cycle in
// two places. `begin` restarts the count; `arm` raises the guard —
// the open flag, the cycle stamp and the seen mask — once the request
// reaches the controller. Fault-free gates only count: without a plan no
// duplicate or straggler exists, so no mask is kept and no deadline is
// armed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/plan.h"

namespace sds::sim {

class PhaseGate {
 public:
  /// What a fired deadline asks of the caller.
  enum class Deadline : std::uint8_t {
    kIgnore,  ///< closed already, or armed for an older cycle
    kRearm,   ///< below quorum with extensions left: schedule it again
    kClose,   ///< close the phase now (degraded when missing() > 0)
  };

  PhaseGate() = default;
  /// `plan` (not owned, may be null) guards the gate; null = count only.
  explicit PhaseGate(const fault::CompiledPlan* plan) : plan_(plan) {}

  /// Restart the count for a phase expecting `expected` replies.
  void begin(std::size_t expected) {
    expected_ = expected;
    received_ = 0;
  }

  /// Raise the guard for `cycle`: open, stamped, an empty seen mask and
  /// no extensions used. A no-op without a plan.
  void arm(std::uint64_t cycle) {
    if (plan_ == nullptr) return;
    open_ = true;
    cycle_ = cycle;
    extensions_ = 0;
    seen_.assign(expected_, 0);
  }

  /// The controller moved on to `cycle`: replies and deadlines stamped
  /// with an older cycle are refused from now on, even while this phase
  /// is still open.
  void restamp(std::uint64_t cycle) { cycle_ = cycle; }

  /// Count reply `slot` of `cycle`. A guarded gate refuses a duplicate, a
  /// reply stamped with another cycle and a reply after close.
  bool accept(std::size_t slot, std::uint64_t cycle) {
    if (plan_ != nullptr) {
      if (!open_ || cycle != cycle_ || seen_[slot] != 0) return false;
      seen_[slot] = 1;
    }
    ++received_;
    return true;
  }

  /// A deadline armed for `cycle` fired.
  Deadline on_deadline(std::uint64_t cycle) {
    if (!open_ || cycle != cycle_) return Deadline::kIgnore;
    if (received_ < plan_->quorum_count(expected_) &&
        extensions_++ < plan_->max_deadline_extensions()) {
      return Deadline::kRearm;
    }
    return Deadline::kClose;
  }

  void close() { open_ = false; }

  [[nodiscard]] bool complete() const { return received_ == expected_; }
  /// Replies still outstanding: the stale count of a degraded close.
  [[nodiscard]] std::size_t missing() const {
    return received_ < expected_ ? expected_ - received_ : 0;
  }
  /// Whether reply `slot` was accepted (guarded gates only).
  [[nodiscard]] bool seen(std::size_t slot) const { return seen_[slot] != 0; }

 private:
  const fault::CompiledPlan* plan_ = nullptr;
  std::size_t expected_ = 0;
  std::size_t received_ = 0;
  bool open_ = false;
  std::uint64_t cycle_ = 0;
  std::size_t extensions_ = 0;
  std::vector<char> seen_;
};

}  // namespace sds::sim
