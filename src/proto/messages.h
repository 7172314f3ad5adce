// Control-protocol messages exchanged between controllers and stages.
//
// Every message provides:
//   void encode(wire::Encoder&) const     — append body bytes
//   static Result<T> decode(wire::Decoder&) — parse body bytes
//   std::size_t wire_size() const          — exact encoded body size,
//                                            computable without encoding
//                                            (the simulator accounts
//                                            network bytes with this)
//   operator==                             — test support
//
// Message flow (one control cycle, hierarchical form; flat skips the
// aggregator hop):
//
//   global --CollectRequest--> aggregator --CollectRequest--> stages
//   stages --StageMetrics--> aggregator --AggregatedMetrics--> global
//   global --EnforceBatch--> aggregator --EnforceBatch(split)--> stages
//   stages --EnforceAck--> aggregator --EnforceAck(merged)--> global
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "wire/codec.h"
#include "wire/frame.h"
#include "wire/shared_frame.h"

namespace sds::proto {

enum class MessageType : std::uint16_t {
  kInvalid = 0,
  kRegisterRequest = 1,
  kRegisterAck = 2,
  kCollectRequest = 3,
  kStageMetrics = 4,
  kMetricsBatch = 5,
  kAggregatedMetrics = 6,
  kEnforceBatch = 7,
  kEnforceAck = 8,
  kHeartbeat = 9,
  kHeartbeatAck = 10,
  kBudgetLease = 11,
  kError = 12,
  kStageMetricsDelta = 13,
};

[[nodiscard]] std::string_view to_string(MessageType t);

/// How a stage throttles one operation class, in operations per second.
/// The paper's PSFA policy assigns per-job IOPS rates for data and
/// metadata operations; kUnlimited disables throttling for a class.
constexpr double kUnlimited = -1.0;

// ---------------------------------------------------------------------------
// Registration / membership

struct StageInfo {
  StageId stage_id;
  NodeId node_id;
  JobId job_id;
  std::string hostname;

  void encode(wire::Encoder& enc) const;
  static Result<StageInfo> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const StageInfo&) const = default;
};

struct RegisterRequest {
  static constexpr MessageType kType = MessageType::kRegisterRequest;
  StageInfo info;

  void encode(wire::Encoder& enc) const { info.encode(enc); }
  static Result<RegisterRequest> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const { return info.wire_size(); }
  bool operator==(const RegisterRequest&) const = default;
};

struct RegisterAck {
  static constexpr MessageType kType = MessageType::kRegisterAck;
  bool accepted = false;
  std::uint32_t epoch = 0;

  void encode(wire::Encoder& enc) const;
  static Result<RegisterAck> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const { return 1 + 4; }
  bool operator==(const RegisterAck&) const = default;
};

// ---------------------------------------------------------------------------
// Collect phase

struct CollectRequest {
  static constexpr MessageType kType = MessageType::kCollectRequest;
  std::uint64_t cycle_id = 0;
  /// When true, stages report per-class detail; otherwise two totals.
  bool detailed = false;

  void encode(wire::Encoder& enc) const;
  static Result<CollectRequest> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const CollectRequest&) const = default;
};

/// Instantaneous I/O telemetry from one data-plane stage.
struct StageMetrics {
  static constexpr MessageType kType = MessageType::kStageMetrics;
  std::uint64_t cycle_id = 0;
  StageId stage_id;
  JobId job_id;
  double data_iops = 0;   // submitted data-op rate since last collect
  double meta_iops = 0;   // submitted metadata-op rate since last collect
  double data_limit = kUnlimited;  // currently enforced limits (echo)
  double meta_limit = kUnlimited;

  void encode(wire::Encoder& enc) const;
  static Result<StageMetrics> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const StageMetrics&) const = default;
};

/// Flag-gated incremental form of StageMetrics: carries only the fields
/// whose IEEE-754 bit pattern changed since the stage's last report, as
/// zig-zag varints of the bit-pattern difference (mod 2^64). Nearby
/// doubles share exponent bits, so a low-churn stage's delta is 1–2
/// bytes per changed field and an unchanged stage's frame is just
/// cycle+flags. Receivers fold deltas into a columnar MetricsStore
/// (core/metrics_store.h); the chain is exact — applying a delta
/// reproduces the sender's StageMetrics bit-for-bit.
///
/// The stage id is optional (kHasStageId): on per-stage connections the
/// receiver already knows which stage a connection belongs to, and
/// omitting the id is what gets the frame under a third of the full
/// form. `base_cycle_id` defaults to cycle_id - 1 (the common
/// every-cycle cadence); kHasBaseAge carries an explicit base age when
/// a report was skipped. A receiver whose last applied cycle for the
/// stage differs from base_cycle_id must reject the delta and wait for
/// a full-frame refresh. Flag bits 6–7 are reserved and rejected.
struct StageMetricsDelta {
  static constexpr MessageType kType = MessageType::kStageMetricsDelta;
  // Field-changed bits (also the encode order of the delta varints).
  static constexpr std::uint8_t kDataIops = 1u << 0;
  static constexpr std::uint8_t kMetaIops = 1u << 1;
  static constexpr std::uint8_t kDataLimit = 1u << 2;
  static constexpr std::uint8_t kMetaLimit = 1u << 3;
  static constexpr std::uint8_t kHasStageId = 1u << 4;
  static constexpr std::uint8_t kHasBaseAge = 1u << 5;
  static constexpr std::size_t kFieldCount = 4;

  std::uint64_t cycle_id = 0;
  /// Cycle whose values the deltas are relative to (receiver-side
  /// precondition; encoded as the age cycle_id - base_cycle_id).
  std::uint64_t base_cycle_id = 0;
  std::optional<StageId> stage_id;
  /// kDataIops..kMetaLimit bits for fields present in `deltas`.
  std::uint8_t fields = 0;
  /// Per-field bit-pattern difference new - old (mod 2^64), indexed by
  /// field-bit position; slots for absent fields stay zero.
  std::array<std::uint64_t, kFieldCount> deltas{};

  /// Build the delta taking `curr` relative to `prev` (same stage,
  /// prev.cycle_id < curr.cycle_id).
  [[nodiscard]] static StageMetricsDelta make(const StageMetrics& prev,
                                              const StageMetrics& curr,
                                              bool include_stage_id);
  /// Fold this delta into `prev` (the receiver's value at
  /// base_cycle_id), reproducing the sender's metrics exactly.
  [[nodiscard]] StageMetrics apply(const StageMetrics& prev) const;

  void encode(wire::Encoder& enc) const;
  static Result<StageMetricsDelta> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const StageMetricsDelta&) const = default;
};

/// Raw per-stage metrics relayed in one message (aggregator w/o
/// pre-aggregation, used by the pre-aggregation ablation).
struct MetricsBatch {
  static constexpr MessageType kType = MessageType::kMetricsBatch;
  std::uint64_t cycle_id = 0;
  ControllerId from;
  std::vector<StageMetrics> entries;

  void encode(wire::Encoder& enc) const;
  static Result<MetricsBatch> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const MetricsBatch&) const = default;
};

/// Per-job summary produced by an aggregator (Cheferd-style merge).
struct JobMetrics {
  JobId job_id;
  double data_iops = 0;
  double meta_iops = 0;
  std::uint32_t stage_count = 0;

  void encode(wire::Encoder& enc) const;
  static Result<JobMetrics> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const JobMetrics&) const = default;
};

/// Compact per-stage demand hint carried alongside the job summaries.
/// Rates are quantized to float32 — enough precision for proportional
/// splitting, a third of the size of a full StageMetrics entry. This is
/// what lets the global controller keep demand-proportional per-stage
/// rules under the hierarchy (and why the paper's hierarchical global
/// controller still receives megabytes per second and holds per-stage
/// state for all 10,000 nodes).
struct StageDigest {
  StageId stage_id;
  float data_iops = 0;
  float meta_iops = 0;

  void encode(wire::Encoder& enc) const;
  static Result<StageDigest> decode(wire::Decoder& dec);
  [[nodiscard]] static constexpr std::size_t wire_size() { return 4 + 4 + 4; }
  bool operator==(const StageDigest&) const = default;
};

struct AggregatedMetrics {
  static constexpr MessageType kType = MessageType::kAggregatedMetrics;
  std::uint64_t cycle_id = 0;
  ControllerId from;
  std::uint32_t total_stages = 0;
  std::vector<JobMetrics> jobs;
  /// Optional per-stage digests (empty when digests are disabled).
  std::vector<StageDigest> digests;

  void encode(wire::Encoder& enc) const;
  static Result<AggregatedMetrics> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const AggregatedMetrics&) const = default;
};

// ---------------------------------------------------------------------------
// Enforce phase

/// One storage rule: rate limits for one stage. Epochs let stages detect
/// stale rules after controller failover (paper §VI dependability).
struct Rule {
  StageId stage_id;
  JobId job_id;
  double data_iops_limit = kUnlimited;
  double meta_iops_limit = kUnlimited;
  std::uint64_t epoch = 0;

  void encode(wire::Encoder& enc) const;
  static Result<Rule> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const Rule&) const = default;
};

struct EnforceBatch {
  static constexpr MessageType kType = MessageType::kEnforceBatch;
  std::uint64_t cycle_id = 0;
  std::vector<Rule> rules;

  void encode(wire::Encoder& enc) const;
  static Result<EnforceBatch> decode(wire::Decoder& dec);
  /// Decode into `out`, whose rule vector keeps its capacity (see
  /// from_frame(frame, out)); on error `out` holds a partial batch.
  static Status decode(wire::Decoder& dec, EnforceBatch& out);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const EnforceBatch&) const = default;
};

struct EnforceAck {
  static constexpr MessageType kType = MessageType::kEnforceAck;
  std::uint64_t cycle_id = 0;
  std::uint32_t applied = 0;

  void encode(wire::Encoder& enc) const;
  static Result<EnforceAck> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const EnforceAck&) const = default;
};

// ---------------------------------------------------------------------------
// Liveness and delegation

struct Heartbeat {
  static constexpr MessageType kType = MessageType::kHeartbeat;
  ControllerId from;
  std::uint64_t seq = 0;

  void encode(wire::Encoder& enc) const;
  static Result<Heartbeat> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const Heartbeat&) const = default;
};

struct HeartbeatAck {
  static constexpr MessageType kType = MessageType::kHeartbeatAck;
  std::uint64_t seq = 0;

  void encode(wire::Encoder& enc) const;
  static Result<HeartbeatAck> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const HeartbeatAck&) const = default;
};

/// Budget delegated to an aggregator that makes local PSFA decisions
/// (paper §VI: offloading processing logic to aggregator nodes).
struct BudgetLease {
  static constexpr MessageType kType = MessageType::kBudgetLease;
  std::uint64_t cycle_id = 0;
  double data_budget = 0;
  double meta_budget = 0;
  std::uint64_t valid_until_ns = 0;

  void encode(wire::Encoder& enc) const;
  static Result<BudgetLease> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const BudgetLease&) const = default;
};

struct ErrorMessage {
  static constexpr MessageType kType = MessageType::kError;
  std::uint32_t code = 0;
  std::string detail;

  void encode(wire::Encoder& enc) const;
  static Result<ErrorMessage> decode(wire::Decoder& dec);
  [[nodiscard]] std::size_t wire_size() const;
  bool operator==(const ErrorMessage&) const = default;
};

// ---------------------------------------------------------------------------
// Frame packing helpers

/// Encode a message into a transport Frame. When `trace` is set the frame
/// carries the causal trace context in its wire trailer (flags bit 0);
/// decoding strips it back into Frame::trace, so message codecs never see
/// it.
template <typename M>
[[nodiscard]] wire::Frame to_frame(
    const M& msg, std::optional<wire::TraceContext> trace = std::nullopt) {
  wire::Frame frame;
  frame.type = static_cast<std::uint16_t>(M::kType);
  frame.trace = trace;
  wire::Encoder enc(frame.payload);
  enc.reserve(msg.wire_size());
  msg.encode(enc);
  return frame;
}

/// Encode a message once into a ref-counted SharedFrame for broadcast:
/// every connection then queues the same immutable wire image instead of
/// re-serializing (or re-copying) the payload per destination. An optional
/// trace context rides the shared image's trailer — encoded once like the
/// payload.
template <typename M>
[[nodiscard]] wire::SharedFrame to_shared_frame(
    const M& msg, std::optional<wire::TraceContext> trace = std::nullopt) {
  return wire::SharedFrame::encode(
      static_cast<std::uint16_t>(M::kType), msg.wire_size(),
      [&msg](wire::Encoder& enc) { msg.encode(enc); }, trace);
}

/// Decode a frame's payload into an existing message, checking the type
/// tag and that the payload is fully consumed. A message with a
/// `decode(Decoder&, M&)` overload (EnforceBatch) refills `out` in place,
/// so a receiver that keeps one message across frames reuses its
/// vectors' storage; on error `out` is left partly decoded.
template <typename M>
[[nodiscard]] Status from_frame(const wire::Frame& frame, M& out) {
  if (frame.type != static_cast<std::uint16_t>(M::kType)) {
    return Status::invalid_argument("frame type mismatch");
  }
  wire::Decoder dec(frame.payload);
  if constexpr (requires { M::decode(dec, out); }) {
    SDS_RETURN_IF_ERROR(M::decode(dec, out));
  } else {
    auto msg = M::decode(dec);
    if (!msg.is_ok()) return msg.status();
    out = std::move(msg).value();
  }
  if (!dec.fully_consumed()) {
    return Status::invalid_argument("trailing bytes in frame payload");
  }
  return Status::ok();
}

/// Decode a frame's payload as message type M; checks the type tag and
/// that the payload is fully consumed.
template <typename M>
[[nodiscard]] Result<M> from_frame(const wire::Frame& frame) {
  M msg;
  SDS_RETURN_IF_ERROR(from_frame(frame, msg));
  return msg;
}

}  // namespace sds::proto
