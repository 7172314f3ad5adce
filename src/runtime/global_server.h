// Forwarding header: the live global controller is the root
// runtime::ControllerNode; the role names stay for code that spells them.
#pragma once

#include "runtime/controller_node.h"

namespace sds::runtime {

using GlobalControllerServer = ControllerNode;
using GlobalServerOptions = ControllerNodeOptions;

}  // namespace sds::runtime
