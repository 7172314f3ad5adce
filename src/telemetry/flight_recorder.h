// Always-on, allocation-free flight recorder.
//
// Every component (global controller, aggregators, stage hosts, the sim's
// cycle driver) keeps a fixed-size ring of recent span records so that
// when something goes wrong — a fault-driver kill, a degraded cycle, an
// operator poking /flight — the last few thousand spans are available
// without having had tracing enabled. Unlike SpanTracer, records are POD:
// recording copies a fixed-size struct under a short critical section and
// never allocates, so the recorder is safe to leave on in the hot cycle
// path (the perf_cycle A/B leg gates its overhead at <= 5%).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/span_tracer.h"

namespace sds::telemetry {

/// One fixed-size span record. Name is truncated to fit; everything else
/// mirrors telemetry::Span.
struct FlightRecord {
  static constexpr std::size_t kNameCapacity = 23;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t cycle = 0;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint32_t track = 0;
  SpanPhase phase = SpanPhase::kNone;
  std::array<char, kNameCapacity + 1> name{};  // NUL-terminated

  void set_name(std::string_view n) {
    const std::size_t len = n.size() < kNameCapacity ? n.size() : kNameCapacity;
    for (std::size_t i = 0; i < len; ++i) name[i] = n[i];
    name[len] = '\0';
  }

  [[nodiscard]] std::string_view name_view() const {
    return std::string_view(name.data());
  }

  [[nodiscard]] static FlightRecord from_span(const Span& span) {
    FlightRecord rec;
    rec.trace_id = span.trace_id;
    rec.span_id = span.span_id;
    rec.parent_span = span.parent_span;
    rec.cycle = span.cycle;
    rec.start_ns = span.start.count();
    rec.duration_ns = span.duration.count();
    rec.track = span.track;
    rec.phase = span.phase;
    rec.set_name(span.name);
    return rec;
  }
};

class FlightRecorder {
 public:
  /// 1,024 records (80 KiB) hold about 13 cycles of a 2,500-stage host's
  /// hops, one record per run of frames, and some 170 of a global
  /// controller's phase spans.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// The full ring is allocated up front; record() never allocates.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(const FlightRecord& rec) SDS_EXCLUDES(mu_);
  void record(const Span& span) SDS_EXCLUDES(mu_) {
    record(FlightRecord::from_span(span));
  }

  /// Records currently held, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const SDS_EXCLUDES(mu_);

  /// Total records ever written / evicted by ring wrap.
  [[nodiscard]] std::uint64_t recorded() const SDS_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t dropped() const SDS_EXCLUDES(mu_);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void reset() SDS_EXCLUDES(mu_);

  /// JSON dump of the ring — the payload of /flight and of dump-on-fault
  /// artifacts. `reason` and `component` annotate the envelope.
  [[nodiscard]] std::string dump_json(std::string_view component = {},
                                      std::string_view reason = {}) const
      SDS_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;
  mutable Mutex mu_{LockRank::kTelemetryTracer};
  std::vector<FlightRecord> ring_ SDS_GUARDED_BY(mu_);
  std::size_t head_ SDS_GUARDED_BY(mu_) = 0;
  std::size_t size_ SDS_GUARDED_BY(mu_) = 0;
  std::uint64_t recorded_ SDS_GUARDED_BY(mu_) = 0;
};

}  // namespace sds::telemetry
