// Forwarding header: a live aggregator is an interior
// runtime::ControllerNode; the role names stay for code that spells them.
#pragma once

#include "runtime/controller_node.h"

namespace sds::runtime {

using AggregatorServer = ControllerNode;
using AggregatorServerOptions = ControllerNodeOptions;

}  // namespace sds::runtime
