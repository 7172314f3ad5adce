// TelemetryOptions — the one knob block every live component takes — and
// TelemetryReporter, the periodic snapshot/flush thread for the live
// runtime (ControllerNode at every tier, StageHost, daemons).
//
// The reporter appends one JSONL snapshot per period to
// `<out_dir>/<component>.metrics.jsonl` and rewrites
// `<out_dir>/<component>.prom` (Prometheus text) in place, so a scrape of
// the freshest state and the full time series coexist. A final flush runs
// on stop() so short-lived processes still export.
#pragma once

#include <memory>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"

namespace sds::telemetry {

struct TelemetryOptions {
  /// Master switch; everything below is ignored when false.
  bool enabled = false;
  /// Directory for exporter output; empty = in-memory only (snapshots are
  /// still reachable through the registry, nothing is written).
  std::string out_dir;
  /// File-name prefix and value of the `component` label.
  std::string component = "sds";
  /// Reporter flush period.
  Nanos report_period = seconds(1);
  /// Use an external registry (shared across components in one process);
  /// the component owns a private one when null.
  MetricsRegistry* registry = nullptr;
  /// External span tracer; spans are dropped when null and no private
  /// tracer was requested via `trace`.
  SpanTracer* tracer = nullptr;
  /// When true (and `tracer` is null), the component owns a private
  /// tracer and the reporter flushes `<component>.trace.json` on stop.
  bool trace = false;
  /// Track id this component's spans record on. Distinct per component
  /// when several share one external tracer (0 = the global controller
  /// by convention).
  std::uint32_t track = 0;
  /// Serve live introspection over HTTP (/metrics, /cycles, /flight) on
  /// 127.0.0.1:`introspect_port` (0 = kernel-assigned ephemeral port).
  bool introspect = false;
  std::uint16_t introspect_port = 0;
};

class TelemetryReporter {
 public:
  /// `registry` must outlive the reporter. `tracer` may be null.
  TelemetryReporter(MetricsRegistry& registry, SpanTracer* tracer,
                    std::string out_dir, std::string component,
                    Nanos period);
  ~TelemetryReporter();

  TelemetryReporter(const TelemetryReporter&) = delete;
  TelemetryReporter& operator=(const TelemetryReporter&) = delete;

  void start() SDS_EXCLUDES(mu_);
  /// Stop the thread and flush one final snapshot (+ trace if present).
  void stop() SDS_EXCLUDES(mu_);

  /// Snapshot and write all sinks once (also called by the loop).
  Status flush();

  [[nodiscard]] std::string metrics_path() const;
  [[nodiscard]] std::string prometheus_path() const;
  [[nodiscard]] std::string trace_path() const;

 private:
  void loop() SDS_EXCLUDES(mu_);

  MetricsRegistry* registry_;
  SpanTracer* tracer_;
  const std::string out_dir_;
  const std::string component_;
  const Nanos period_;

  Mutex mu_{LockRank::kTelemetryReporter};
  CondVar cv_;
  bool stopping_ SDS_GUARDED_BY(mu_) = false;
  bool started_ SDS_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace sds::telemetry
