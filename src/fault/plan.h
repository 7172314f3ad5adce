// FaultPlan — a deterministic, seeded schedule of faults shared by the
// discrete-event simulator and the live runtime.
//
// A plan mixes scripted events (crash stage 17 at t=120ms for 500ms)
// with stochastic models (Poisson churn with a per-stage MTBF, per-link
// message drop/delay/duplication). Before a run starts, the plan is
// *compiled* against a concrete topology into a CompiledPlan: every
// stochastic draw is expanded up front with an sds::Rng derived from the
// plan seed, so the compiled timeline is a pure value. At injection time
// the simulator asks only pure, state-free questions of it —
// "is stage i up at time t?", "what happens to the collect reply of
// (cycle c, stage i)?" — which makes fault injection independent of
// event-execution interleavings.
//
// Determinism contract (enforced by the determinism pass of tools/sdscheck):
// nothing in src/fault reads a wall clock or an unseeded random source.
// All times are virtual Nanos from the run's epoch; all randomness
// derives from FaultPlan::seed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace sds::fault {

/// What a fault decision does to one message.
enum class MessageFate : std::uint8_t {
  kDeliver = 0,
  kDrop = 1,
  kDuplicate = 2,
  kDelay = 3,
};

/// Message classes the per-link fault model distinguishes. The (kind,
/// cycle, entity) triple keys one deterministic draw.
enum class MessageKind : std::uint8_t {
  kCollectReply = 1,   // stage -> controller StageMetrics
  kEnforceAck = 2,     // stage -> controller EnforceAck
  kAggregatorReport = 3,  // aggregator -> global AggregatedMetrics
  kAggregatorAck = 4,     // aggregator -> global merged EnforceAck
};

struct StageCrash {
  std::uint32_t stage = 0;
  Nanos at{0};
  /// Outage length; <= 0 means the stage never comes back.
  Nanos down_for{0};
};

struct AggregatorCrash {
  std::uint32_t aggregator = 0;
  Nanos at{0};
  Nanos down_for{0};
};

/// CPU-work multiplier on a contiguous stage range during a window
/// (slow-node degradation: thermal throttling, a noisy neighbour).
struct SlowWindow {
  std::uint32_t first_stage = 0;
  std::uint32_t last_stage = 0;  // inclusive
  Nanos from{0};
  Nanos until{0};
  double multiplier = 1.0;
};

/// Network partition: a contiguous stage range unreachable from its
/// controllers during a window (messages in both directions are lost).
struct PartitionWindow {
  std::uint32_t first_stage = 0;
  std::uint32_t last_stage = 0;  // inclusive
  Nanos from{0};
  Nanos until{0};
};

/// The user-facing plan: a seeded script plus stochastic knobs. Build
/// programmatically or parse from the `--fault-plan=FILE` text format
/// (one directive per line, '#' comments — see parse()).
struct FaultPlan {
  /// Root seed for every stochastic expansion (churn arrival times,
  /// outage lengths, message fates).
  std::uint64_t seed = 1;

  // -- Degraded-cycle contract ----------------------------------------
  /// Fraction of expected replies that lets a phase deadline close the
  /// phase degraded (1.0 = close only on timeout with whatever arrived).
  double quorum = 1.0;
  /// Controller-side deadline per gather phase (collect replies at each
  /// controller, enforce acks); measured from the phase fan-out.
  Nanos phase_timeout = millis(20);
  /// Deadline re-arms while below quorum before the phase is force-closed
  /// (progress guarantee: a cycle can never hang).
  std::size_t max_deadline_extensions = 8;

  // -- Poisson churn ----------------------------------------------------
  /// Mean time between failures per stage, seconds (0 = no stage churn).
  double stage_mtbf_s = 0;
  /// Mean outage length per stage failure, seconds (exponential).
  double stage_downtime_s = 1.0;
  double aggregator_mtbf_s = 0;
  double aggregator_downtime_s = 1.0;

  // -- Per-link message faults ------------------------------------------
  /// One fate is drawn per (kind, cycle, entity); the probabilities are
  /// therefore mutually exclusive and must sum to <= 1.
  double drop_probability = 0;
  double duplicate_probability = 0;
  double delay_probability = 0;
  /// Extra one-way latency applied to delayed messages.
  Nanos delay = micros(200);

  // -- Scripted events ---------------------------------------------------
  std::vector<StageCrash> stage_crashes;
  std::vector<AggregatorCrash> aggregator_crashes;
  std::vector<SlowWindow> slow_windows;
  std::vector<PartitionWindow> partitions;

  // Builder conveniences (return *this for chaining).
  FaultPlan& crash_stage(std::uint32_t stage, Nanos at, Nanos down_for = Nanos{0});
  FaultPlan& crash_aggregator(std::uint32_t aggregator, Nanos at,
                              Nanos down_for = Nanos{0});
  FaultPlan& slow(std::uint32_t first, std::uint32_t last, Nanos from,
                  Nanos until, double multiplier);
  FaultPlan& partition(std::uint32_t first, std::uint32_t last, Nanos from,
                       Nanos until);

  /// True when the plan can inject nothing (no scripted events, no churn,
  /// no message faults) — callers may skip compilation entirely.
  [[nodiscard]] bool empty() const;

  /// Field sanity (probabilities, quorum range, timeout sign).
  [[nodiscard]] Status validate() const;

  /// Parse the text format. One directive per line; '#' starts a comment.
  ///   seed 7
  ///   quorum 0.9
  ///   timeout_ms 15
  ///   churn stage mtbf_s 30 downtime_s 5
  ///   churn aggregator mtbf_s 120 downtime_s 10
  ///   drop 0.01
  ///   duplicate 0.005
  ///   delay 0.02 200          # probability, extra latency in µs
  ///   crash stage 17 at_ms 120 for_ms 500
  ///   crash aggregator 0 at_ms 50 for_ms 0   # 0 = forever
  ///   slow 0 99 from_ms 0 until_ms 1000 x 4
  ///   partition 100 199 from_ms 50 until_ms 250
  [[nodiscard]] static Result<FaultPlan> parse(std::string_view text);

  /// Read and parse a plan file (the benches' `--fault-plan=FILE`).
  [[nodiscard]] static Result<FaultPlan> load(const std::string& path);
};

/// ceil(quorum * expected), clamped to [1, expected] (0 when expected is
/// 0): the reply count that lets a phase close before every reply is in.
/// The one quorum formula of the simulator and the live runtime.
[[nodiscard]] std::size_t quorum_count(double quorum, std::size_t expected);

/// A [from, until) outage; until == kNever means permanent.
struct DownInterval {
  Nanos from{0};
  Nanos until{0};
};

/// The plan expanded against a concrete topology: per-entity sorted
/// outage timelines plus the pure message-fate function. Immutable after
/// compile(); every query is const, state-free and O(log intervals).
class CompiledPlan {
 public:
  static constexpr Nanos kNever{std::numeric_limits<std::int64_t>::max()};

  /// Expand `plan` for a topology of `num_stages` stages and
  /// `num_aggregators` aggregators over [0, horizon) of virtual time.
  /// The plan must validate().
  [[nodiscard]] static CompiledPlan compile(const FaultPlan& plan,
                                            std::size_t num_stages,
                                            std::size_t num_aggregators,
                                            Nanos horizon);

  [[nodiscard]] bool stage_up(std::size_t stage, Nanos t) const;
  [[nodiscard]] bool aggregator_up(std::size_t aggregator, Nanos t) const;

  /// Stage unreachable due to a partition window (independent of up()).
  [[nodiscard]] bool partitioned(std::size_t stage, Nanos t) const;

  /// CPU-work multiplier for a stage at `t` (1.0 = healthy).
  [[nodiscard]] double service_multiplier(std::size_t stage, Nanos t) const;

  /// Deterministic per-message fate: a pure function of
  /// (seed, kind, cycle, entity) — no internal state, no draw order.
  [[nodiscard]] MessageFate message_fate(MessageKind kind, std::uint64_t cycle,
                                         std::uint64_t entity) const;

  /// Latest restart (outage end) of `stage` at or before `t`; Nanos{-1}
  /// when the stage has not restarted by `t`. Recovery-time accounting:
  /// recovery = first successful collect after restart - restart.
  [[nodiscard]] Nanos last_stage_restart_before(std::size_t stage, Nanos t) const;

  [[nodiscard]] double quorum() const { return quorum_; }
  /// fault::quorum_count at this plan's quorum.
  [[nodiscard]] std::size_t quorum_count(std::size_t expected) const {
    return fault::quorum_count(quorum_, expected);
  }
  [[nodiscard]] Nanos phase_timeout() const { return phase_timeout_; }
  [[nodiscard]] std::size_t max_deadline_extensions() const {
    return max_extensions_;
  }
  [[nodiscard]] Nanos delay() const { return delay_; }

  /// Total scheduled outages (stage + aggregator), for tests/reporting.
  [[nodiscard]] std::size_t total_outages() const { return total_outages_; }

  /// Expanded outage timelines (sorted, non-overlapping), one vector per
  /// entity. The runtime FaultDriver turns these into kill/restart calls.
  [[nodiscard]] const std::vector<DownInterval>& stage_outages(
      std::size_t stage) const {
    return stage_down_[stage];
  }
  [[nodiscard]] const std::vector<DownInterval>& aggregator_outages(
      std::size_t aggregator) const {
    return aggregator_down_[aggregator];
  }
  [[nodiscard]] std::size_t num_stages() const { return stage_down_.size(); }
  [[nodiscard]] std::size_t num_aggregators() const {
    return aggregator_down_.size();
  }

 private:
  CompiledPlan() = default;

  [[nodiscard]] static bool up_at(const std::vector<DownInterval>& intervals,
                                  Nanos t);

  std::vector<std::vector<DownInterval>> stage_down_;
  std::vector<std::vector<DownInterval>> aggregator_down_;
  std::vector<SlowWindow> slow_windows_;
  std::vector<PartitionWindow> partitions_;
  std::uint64_t seed_ = 0;
  double quorum_ = 1.0;
  Nanos phase_timeout_{0};
  std::size_t max_extensions_ = 0;
  double drop_p_ = 0;
  double dup_p_ = 0;
  double delay_p_ = 0;
  Nanos delay_{0};
  std::size_t total_outages_ = 0;
};

}  // namespace sds::fault
