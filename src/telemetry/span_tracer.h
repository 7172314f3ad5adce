// Bounded in-memory span recorder for per-cycle / per-RPC tracing.
//
// The cycle engines (sim and live) record one span per control-cycle phase
// (collect / compute / enforce) plus an enclosing per-cycle span; the RPC
// layer can add per-gather spans. Spans live in a fixed-capacity ring —
// recording never allocates beyond the ring and never blocks for long —
// and are flushed to Chrome-tracing/Perfetto JSON by trace_export.h, so a
// hierarchical 3-level run is visually inspectable (one track per
// controller).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace sds::telemetry {

/// Control-cycle phase a span attributes time to. The five-phase split
/// refines the classic collect/compute/enforce triple: `aggregate` is the
/// tail of collection spent merging/relaying above the stages, and
/// `disseminate` is the head of enforcement spent pushing rules down
/// before any stage applies them.
enum class SpanPhase : std::uint8_t {
  kNone = 0,
  kCollect,
  kAggregate,
  kCompute,
  kDisseminate,
  kEnforce,
};

[[nodiscard]] constexpr const char* to_string(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kCollect: return "collect";
    case SpanPhase::kAggregate: return "aggregate";
    case SpanPhase::kCompute: return "compute";
    case SpanPhase::kDisseminate: return "disseminate";
    case SpanPhase::kEnforce: return "enforce";
    case SpanPhase::kNone: break;
  }
  return "none";
}

/// Deterministic span-id derivation: FNV-1a over (trace, track, name).
/// Ids must not depend on recording order, so they are pure functions of
/// stable keys.
/// The same logical span re-recorded (e.g. a duplicated wire delivery)
/// derives the same id, which is how trace_report spots duplicates.
[[nodiscard]] constexpr std::uint64_t derive_span_id(
    std::uint64_t trace_id, std::uint32_t track, std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  for (int i = 0; i < 64; i += 8) {
    h = (h ^ ((trace_id >> i) & 0xff)) * kPrime;
  }
  for (int i = 0; i < 32; i += 8) {
    h = (h ^ ((track >> i) & 0xff)) * kPrime;
  }
  for (const char c : name) {
    h = (h ^ static_cast<std::uint8_t>(c)) * kPrime;
  }
  return h != 0 ? h : 1;  // 0 is reserved for "no span"
}

/// One completed span. Timestamps are whatever clock the producer used:
/// virtual nanoseconds in the simulator, steady-clock nanoseconds live.
struct Span {
  /// Event name ("collect", "compute", "enforce", "cycle", "gather").
  std::string name;
  /// Trace category ("cycle", "rpc").
  std::string category;
  /// Track the span renders on (one per controller / thread).
  std::uint32_t track = 0;
  /// Cycle id this span belongs to (0 when not cycle-scoped).
  std::uint64_t cycle = 0;
  /// Free-form detail rendered into the span's args ("stages=50").
  std::string detail;
  Nanos start{0};
  Nanos duration{0};
  /// Causal identity: which trace this span belongs to (cycle number by
  /// convention), its own id, and the id of the span that caused it
  /// (0 = root / unknown). Ids come from derive_span_id.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  /// Cycle phase this span attributes time to (kNone when not phased).
  SpanPhase phase = SpanPhase::kNone;
};

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Record a completed span; overwrites the oldest entry when full.
  void record(Span span) SDS_EXCLUDES(mu_);

  /// Human-readable name for a track (controller), shown by Perfetto.
  void set_track_name(std::uint32_t track, std::string name)
      SDS_EXCLUDES(mu_);

  /// Spans currently in the ring, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const SDS_EXCLUDES(mu_);
  [[nodiscard]] std::map<std::uint32_t, std::string> track_names() const
      SDS_EXCLUDES(mu_);

  /// Total spans ever recorded (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded() const SDS_EXCLUDES(mu_);
  /// Spans evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const SDS_EXCLUDES(mu_);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void reset() SDS_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable Mutex mu_{LockRank::kTelemetryTracer};
  std::vector<Span> ring_ SDS_GUARDED_BY(mu_);
  /// Next write slot once the ring wrapped.
  std::size_t head_ SDS_GUARDED_BY(mu_) = 0;
  std::uint64_t recorded_ SDS_GUARDED_BY(mu_) = 0;
  std::map<std::uint32_t, std::string> track_names_ SDS_GUARDED_BY(mu_);
};

/// RAII helper: times a region against `clock` and records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, const Clock& clock, Span prototype)
      : tracer_(tracer), clock_(&clock), span_(std::move(prototype)) {
    if (tracer_ != nullptr) span_.start = clock_->now();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.duration = clock_->now() - span_.start;
    tracer_->record(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
  const Clock* clock_;
  Span span_;
};

}  // namespace sds::telemetry
