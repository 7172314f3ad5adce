#include "transport/telemetry.h"

namespace sds::transport {

void bind_endpoint_metrics(telemetry::MetricsRegistry& registry,
                           const Endpoint* endpoint,
                           telemetry::Labels labels) {
  auto* bytes_sent = registry.gauge("sds_transport_bytes_sent", labels);
  auto* bytes_received = registry.gauge("sds_transport_bytes_received", labels);
  auto* messages_sent = registry.gauge("sds_transport_messages_sent", labels);
  auto* messages_received =
      registry.gauge("sds_transport_messages_received", labels);
  auto* accepted = registry.gauge("sds_transport_connections_accepted", labels);
  auto* dialed = registry.gauge("sds_transport_connections_dialed", labels);
  auto* rejected = registry.gauge("sds_transport_connections_rejected", labels);
  auto* current = registry.gauge("sds_transport_connections_current", labels);
  auto* handoffs = registry.gauge("sds_transport_handoffs", labels);
  auto* wakeups = registry.gauge("sds_transport_wakeups", labels);
  registry.add_collector([=](telemetry::MetricsRegistry&) {
    const Counters c = endpoint->counters();
    bytes_sent->set(static_cast<double>(c.bytes_sent));
    bytes_received->set(static_cast<double>(c.bytes_received));
    messages_sent->set(static_cast<double>(c.messages_sent));
    messages_received->set(static_cast<double>(c.messages_received));
    accepted->set(static_cast<double>(c.connections_accepted));
    dialed->set(static_cast<double>(c.connections_dialed));
    rejected->set(static_cast<double>(c.connections_rejected));
    current->set(static_cast<double>(c.current_connections));
    handoffs->set(static_cast<double>(c.handoffs));
    wakeups->set(static_cast<double>(c.wakeups));
  });
}

}  // namespace sds::transport
