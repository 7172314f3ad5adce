// Umbrella header: the whole sdscale public API.
//
//   #include "sdscale.h"
//
// For finer-grained builds include the per-layer headers directly; see
// README.md for the layer map.
#pragma once

#include "common/clock.h"       // IWYU pragma: export
#include "common/config.h"      // IWYU pragma: export
#include "common/histogram.h"   // IWYU pragma: export
#include "common/log.h"         // IWYU pragma: export
#include "common/rng.h"         // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "common/types.h"       // IWYU pragma: export

#include "wire/codec.h"         // IWYU pragma: export
#include "wire/frame.h"         // IWYU pragma: export
#include "proto/messages.h"     // IWYU pragma: export

#include "transport/inproc.h"   // IWYU pragma: export
#include "transport/tcp.h"      // IWYU pragma: export
#include "rpc/gather.h"         // IWYU pragma: export

#include "policy/algorithm.h"   // IWYU pragma: export
#include "policy/baselines.h"   // IWYU pragma: export
#include "policy/psfa.h"        // IWYU pragma: export
#include "policy/spec.h"        // IWYU pragma: export
#include "policy/splitter.h"    // IWYU pragma: export

#include "stage/limiter.h"      // IWYU pragma: export
#include "stage/posix_stage.h"  // IWYU pragma: export
#include "stage/token_bucket.h" // IWYU pragma: export
#include "stage/virtual_stage.h"// IWYU pragma: export

#include "core/aggregator.h"    // IWYU pragma: export
#include "core/cycle_stats.h"   // IWYU pragma: export
#include "core/global.h"        // IWYU pragma: export
#include "core/policy_table.h"  // IWYU pragma: export
#include "core/registry.h"      // IWYU pragma: export

#include "runtime/controller_node.h"    // IWYU pragma: export
#include "runtime/deployment.h"         // IWYU pragma: export
#include "runtime/stage_host.h"         // IWYU pragma: export

#include "sim/engine.h"         // IWYU pragma: export
#include "sim/experiment.h"     // IWYU pragma: export
#include "sim/host.h"           // IWYU pragma: export
#include "sim/profile.h"        // IWYU pragma: export

#include "monitor/resource_monitor.h"   // IWYU pragma: export
#include "workload/generators.h"        // IWYU pragma: export
#include "workload/trace.h"             // IWYU pragma: export
