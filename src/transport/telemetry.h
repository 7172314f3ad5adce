// Bridges a transport::Endpoint's counter block into a
// telemetry::MetricsRegistry: a snapshot-time collector publishes the
// cumulative byte/message/connection and hand-off/wake-up counters as
// `sds_transport_*{component=...}` gauges, so Tables II–IV bandwidth
// accounting and live dashboards read the exact same counters.
#pragma once

#include <string>

#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace sds::transport {

/// Register a collector that refreshes the endpoint's counters on every
/// registry snapshot. `endpoint` must outlive the registry's last
/// snapshot(); it may be the same endpoint across multiple components only
/// if `labels` differ (instruments are keyed by name + labels).
void bind_endpoint_metrics(telemetry::MetricsRegistry& registry,
                           const Endpoint* endpoint,
                           telemetry::Labels labels = {});

}  // namespace sds::transport
