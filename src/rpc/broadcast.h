// Broadcast — send one message to many connections with one encode.
//
// The collect, enforce, lease, and heartbeat phases all start with the
// controller sending an identical message to every registered downstream
// connection. Encoding (or even copying) that message per connection puts
// an O(fan-out) allocation cost inside the measured phase latency; at the
// paper's scales (2,500 connections per node) that dominates. broadcast()
// encodes once into a ref-counted wire::SharedFrame and queues the same
// immutable wire image on every connection with one
// Endpoint::send_shared_all burst, which the transports hand over a chunk
// at a time instead of a frame at a time.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "proto/messages.h"
#include "transport/transport.h"
#include "wire/shared_frame.h"

namespace sds::rpc {

/// Encode `msg` exactly once and send it to every connection in `conns`,
/// in order. Returns the number of connections the frame was queued on;
/// closed connections are skipped. An optional trace context is encoded
/// once into the shared image's trailer so every hop of the wave stitches
/// into the same trace.
template <typename M>
std::size_t broadcast(transport::Endpoint& endpoint,
                      std::span<const ConnId> conns, const M& msg,
                      std::optional<wire::TraceContext> trace = std::nullopt) {
  return endpoint.send_shared_all(conns, proto::to_shared_frame(msg, trace));
}

}  // namespace sds::rpc
