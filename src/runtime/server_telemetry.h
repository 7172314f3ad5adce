// Shared telemetry wiring for the live servers (ControllerNode at every
// tier, StageHost): resolves TelemetryOptions into a registry
// and tracer (external or owned), binds the endpoint's transport counters
// and the dispatcher's gather instruments, runs the periodic
// TelemetryReporter when an output directory is configured, keeps the
// component's always-on flight recorder, and serves the live
// introspection endpoint (/metrics, /cycles, /flight) when requested.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "common/log.h"
#include "rpc/gather.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/introspect.h"
#include "telemetry/metrics.h"
#include "telemetry/reporter.h"
#include "telemetry/span_tracer.h"
#include "transport/telemetry.h"

namespace sds::runtime {

class ServerTelemetry {
 public:
  /// No-op when `options.enabled` is false. Call after the endpoint is
  /// bound; safe to call at most once. `cycles_json` (may be null) backs
  /// the introspection endpoint's /cycles route.
  void init(const telemetry::TelemetryOptions& options,
            const transport::Endpoint* endpoint, rpc::Dispatcher& dispatcher,
            std::function<std::string()> cycles_json = nullptr) {
    if (!options.enabled) return;
    component_ = options.component;
    out_dir_ = options.out_dir;
    track_ = options.track;
    registry_ = options.registry != nullptr
                    ? options.registry
                    : (owned_registry_ =
                           std::make_unique<telemetry::MetricsRegistry>())
                          .get();
    if (options.tracer != nullptr) {
      tracer_ = options.tracer;
    } else if (options.trace) {
      owned_tracer_ = std::make_unique<telemetry::SpanTracer>();
      tracer_ = owned_tracer_.get();
    }
    const telemetry::Labels labels{{"component", options.component}};
    transport::bind_endpoint_metrics(*registry_, endpoint, labels);
    dispatcher.bind_telemetry(*registry_, labels);
    if (!options.out_dir.empty()) {
      reporter_ = std::make_unique<telemetry::TelemetryReporter>(
          *registry_, tracer_, options.out_dir, options.component,
          options.report_period);
      reporter_->start();
    }
    if (options.introspect) {
      telemetry::IntrospectionServer::Options iopts;
      iopts.port = options.introspect_port;
      iopts.component = options.component;
      iopts.registry = registry_;
      iopts.flight = &flight_;
      iopts.cycles_json = std::move(cycles_json);
      introspect_ =
          std::make_unique<telemetry::IntrospectionServer>(std::move(iopts));
      const Status started = introspect_->start();
      if (!started.is_ok()) {
        SDS_LOG(WARN) << options.component
                      << ": introspection server failed to start: "
                      << started.to_string();
        introspect_.reset();
      }
    }
  }

  /// Stop the introspection server and the reporter (final flush + trace
  /// export). Idempotent.
  void stop() {
    if (introspect_ != nullptr) introspect_->stop();
    if (reporter_ != nullptr) reporter_->stop();
  }

  /// Dump the flight-recorder ring: to `<out_dir>/<component>.flight.json`
  /// when an output directory is configured, to the log otherwise. Called
  /// on faults and degraded cycles so the last spans before the event
  /// survive.
  void dump_flight(const std::string& reason) {
    const std::string json = flight_.dump_json(component_, reason);
    if (!out_dir_.empty()) {
      const std::string path = out_dir_ + "/" + component_ + ".flight.json";
      std::ofstream out(path, std::ios::trunc);
      if (out) {
        out << json << '\n';
        return;
      }
      SDS_LOG(WARN) << component_ << ": cannot write flight dump to " << path;
    }
    SDS_LOG(INFO) << component_ << ": flight dump (" << reason
                  << "): " << flight_.recorded() << " spans recorded";
  }

  [[nodiscard]] telemetry::MetricsRegistry* registry() { return registry_; }
  [[nodiscard]] telemetry::SpanTracer* tracer() { return tracer_; }
  /// Always-on allocation-free span ring (valid even before init()).
  [[nodiscard]] telemetry::FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const telemetry::FlightRecorder& flight() const {
    return flight_;
  }
  /// Track id this component's spans record on.
  [[nodiscard]] std::uint32_t track() const { return track_; }
  /// Introspection server (null unless started); port() gives the bound
  /// port when the options asked for an ephemeral one.
  [[nodiscard]] telemetry::IntrospectionServer* introspection() {
    return introspect_.get();
  }

 private:
  std::unique_ptr<telemetry::MetricsRegistry> owned_registry_;
  std::unique_ptr<telemetry::SpanTracer> owned_tracer_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::SpanTracer* tracer_ = nullptr;
  std::unique_ptr<telemetry::TelemetryReporter> reporter_;
  /// Fixed-size ring, preallocated at construction; record() never
  /// allocates, so it stays armed even when telemetry is disabled.
  telemetry::FlightRecorder flight_;
  std::unique_ptr<telemetry::IntrospectionServer> introspect_;
  std::string component_ = "sds";
  std::string out_dir_;
  std::uint32_t track_ = 0;
};

}  // namespace sds::runtime
