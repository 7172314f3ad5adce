// End-to-end causal traces in the live in-process runtime: one shared
// SpanTracer across the global controller, an aggregator and a stage
// host (each on its own track), stitched per cycle by the wire-level
// trace context — plus the always-on flight recorders and the live
// introspection endpoint.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/aggregator_server.h"
#include "runtime/global_server.h"
#include "runtime/stage_host.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "three_level_tree.h"
#include "transport/inproc.h"
#include "workload/generators.h"

namespace sds::runtime {
namespace {

using telemetry::Span;
using telemetry::derive_span_id;

/// Spans of `name` grouped by trace id.
std::set<std::uint64_t> traces_of(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::set<std::uint64_t> out;
  for (const auto& span : spans) {
    if (span.name == name) out.insert(span.trace_id);
  }
  return out;
}

const Span* find_span(const std::vector<Span>& spans, std::uint64_t trace,
                      const std::string& name) {
  for (const auto& span : spans) {
    if (span.trace_id == trace && span.name == name) return &span;
  }
  return nullptr;
}

TEST(LiveTraceTest, FlatRuntimeStitchesStageHops) {
  telemetry::MetricsRegistry registry;
  telemetry::SpanTracer tracer;
  transport::InProcNetwork net;

  GlobalServerOptions gopts;
  gopts.core.budgets = {4000.0, 400.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.registry = &registry;
  gopts.telemetry.tracer = &tracer;
  gopts.telemetry.track = 0;
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());

  StageHostOptions hopts;
  hopts.controller_addresses = {"global"};
  hopts.telemetry.enabled = true;
  hopts.telemetry.registry = &registry;
  hopts.telemetry.tracer = &tracer;
  hopts.telemetry.track = 1;
  StageHost host(net, "host0", hopts);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  ASSERT_TRUE(global.run_cycles(2).is_ok());

  const auto spans = tracer.snapshot();
  const auto traces = traces_of(spans, "cycle");
  ASSERT_EQ(traces.size(), 2u);

  for (const std::uint64_t trace : traces) {
    // Controller-side phase spans, ids derived from (trace, track 0).
    for (const char* name : {"cycle", "collect", "aggregate", "compute",
                             "disseminate", "enforce"}) {
      const Span* span = find_span(spans, trace, name);
      ASSERT_NE(span, nullptr) << "trace " << trace << " missing " << name;
      EXPECT_EQ(span->track, 0u) << name;
      EXPECT_EQ(span->span_id, derive_span_id(trace, 0, name)) << name;
    }
    // The stage host's hop spans hang off the controller's wave spans —
    // the wire trailer carried (trace, parent) across the transport.
    const Span* collect_hop = find_span(spans, trace, "stage.collect");
    ASSERT_NE(collect_hop, nullptr) << "trace " << trace;
    EXPECT_EQ(collect_hop->track, 1u);
    EXPECT_EQ(collect_hop->category, "component");
    EXPECT_EQ(collect_hop->parent_span, derive_span_id(trace, 0, "collect"));
    EXPECT_EQ(collect_hop->phase, telemetry::SpanPhase::kCollect);

    const Span* enforce_hop = find_span(spans, trace, "stage.enforce");
    ASSERT_NE(enforce_hop, nullptr) << "trace " << trace;
    EXPECT_EQ(enforce_hop->parent_span,
              derive_span_id(trace, 0, "disseminate"));
    EXPECT_EQ(enforce_hop->phase, telemetry::SpanPhase::kEnforce);
  }

  // Always-on flight recorders captured the same identities.
  EXPECT_GE(global.flight().recorded(), 12u);  // 2 cycles x 6 phase spans
  EXPECT_GE(host.flight().recorded(), 2u);

  host.shutdown();
  global.shutdown();
}

TEST(LiveTraceTest, StageHostRecordsHopsPerRunNotPerStage) {
  telemetry::SpanTracer tracer;
  transport::InProcNetwork net;
  GlobalServerOptions gopts;
  gopts.core.budgets = {4000.0, 400.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.tracer = &tracer;
  gopts.telemetry.track = 0;
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());
  StageHostOptions hopts;
  hopts.controller_addresses = {"global"};
  hopts.telemetry.enabled = true;
  hopts.telemetry.tracer = &tracer;
  hopts.telemetry.track = 1;
  StageHost host(net, "host0", hopts);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  constexpr std::uint64_t kCycles = 5;
  const std::uint64_t records_before = host.flight().recorded();
  const std::uint64_t answered_before = host.endpoint()->counters().messages_sent;
  ASSERT_TRUE(global.run_cycles(kCycles).is_ok());
  // Every collect and enforce frame was answered (the cycles' waves all
  // completed), but the hops were recorded once per run of frames.
  const std::uint64_t records = host.flight().recorded() - records_before;
  const std::uint64_t answered =
      host.endpoint()->counters().messages_sent - answered_before;
  EXPECT_EQ(answered, kCycles * 200);
  EXPECT_GT(records, 0u);
  EXPECT_LT(records / kCycles, answered / kCycles);
  // Each cycle still has both hops, parented on the controller's waves.
  const auto spans = tracer.snapshot();
  for (const std::uint64_t trace : traces_of(spans, "cycle")) {
    const Span* collect_hop = find_span(spans, trace, "stage.collect");
    ASSERT_NE(collect_hop, nullptr) << "trace " << trace;
    EXPECT_EQ(collect_hop->parent_span, derive_span_id(trace, 0, "collect"));
    EXPECT_EQ(collect_hop->span_id, derive_span_id(trace, 1, "stage.collect"));
    const Span* enforce_hop = find_span(spans, trace, "stage.enforce");
    ASSERT_NE(enforce_hop, nullptr) << "trace " << trace;
    EXPECT_EQ(enforce_hop->parent_span,
              derive_span_id(trace, 0, "disseminate"));
  }
  host.shutdown();
  global.shutdown();
}

TEST(LiveTraceTest, HierRuntimeStitchesThreeComponentsAndServesIntrospection) {
  telemetry::MetricsRegistry registry;
  telemetry::SpanTracer tracer;
  transport::InProcNetwork net;

  GlobalServerOptions gopts;
  gopts.core.budgets = {2000.0, 200.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.registry = &registry;
  gopts.telemetry.tracer = &tracer;
  gopts.telemetry.track = 0;
  gopts.telemetry.introspect = true;
  gopts.telemetry.introspect_port = 0;  // ephemeral
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());

  AggregatorServerOptions aopts;
  aopts.id = ControllerId{0};
  aopts.upstream_address = "global";
  aopts.telemetry.enabled = true;
  aopts.telemetry.registry = &registry;
  aopts.telemetry.tracer = &tracer;
  aopts.telemetry.track = 1;
  AggregatorServer agg(net, "agg0", aopts);
  ASSERT_TRUE(agg.start().is_ok());

  StageHostOptions hopts;
  hopts.controller_addresses = {"agg0"};
  hopts.telemetry.enabled = true;
  hopts.telemetry.registry = &registry;
  hopts.telemetry.tracer = &tracer;
  hopts.telemetry.track = 2;
  StageHost host(net, "host0", hopts);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  const auto deadline = SystemClock::instance().now() + seconds(5);
  while (global.registered_stages() < 4 &&
         SystemClock::instance().now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(global.registered_stages(), 4u);
  ASSERT_TRUE(global.run_cycles(2).is_ok());

  const auto spans = tracer.snapshot();
  const auto traces = traces_of(spans, "cycle");
  ASSERT_EQ(traces.size(), 2u);

  for (const std::uint64_t trace : traces) {
    // global (track 0) -> aggregator (track 1) -> stage host (track 2):
    // each hop's parent is the upstream component's span in this trace.
    const Span* agg_collect = find_span(spans, trace, "agg.collect");
    ASSERT_NE(agg_collect, nullptr) << "trace " << trace;
    EXPECT_EQ(agg_collect->track, 1u);
    EXPECT_EQ(agg_collect->parent_span, derive_span_id(trace, 0, "collect"));
    EXPECT_EQ(agg_collect->span_id, derive_span_id(trace, 1, "agg.collect"));

    const Span* stage_collect = find_span(spans, trace, "stage.collect");
    ASSERT_NE(stage_collect, nullptr) << "trace " << trace;
    EXPECT_EQ(stage_collect->track, 2u);
    EXPECT_EQ(stage_collect->parent_span,
              derive_span_id(trace, 1, "agg.collect"));

    const Span* agg_enforce = find_span(spans, trace, "agg.enforce");
    ASSERT_NE(agg_enforce, nullptr) << "trace " << trace;
    EXPECT_EQ(agg_enforce->parent_span,
              derive_span_id(trace, 0, "disseminate"));

    const Span* stage_enforce = find_span(spans, trace, "stage.enforce");
    ASSERT_NE(stage_enforce, nullptr) << "trace " << trace;
    EXPECT_EQ(stage_enforce->parent_span,
              derive_span_id(trace, 1, "agg.enforce"));
  }

  // Every tier's always-on flight ring saw its hops.
  EXPECT_GT(global.flight().recorded(), 0u);
  EXPECT_GT(agg.flight().recorded(), 0u);
  EXPECT_GT(host.flight().recorded(), 0u);

  // Live introspection on the global controller: bound to an ephemeral
  // port, all three routes serve this run's data.
  telemetry::IntrospectionServer* introspection = global.introspection();
  ASSERT_NE(introspection, nullptr);
  EXPECT_TRUE(introspection->running());
  EXPECT_NE(introspection->port(), 0);
  std::string body;
  std::string type;
  ASSERT_TRUE(introspection->handle("/metrics", body, type));
  EXPECT_NE(body.find("sds_cycles_total"), std::string::npos);
  ASSERT_TRUE(introspection->handle("/cycles", body, type));
  EXPECT_NE(body.find("\"cycle\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"disseminate_ns\":"), std::string::npos) << body;
  ASSERT_TRUE(introspection->handle("/flight", body, type));
  EXPECT_NE(body.find("\"records\":["), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"cycle\""), std::string::npos) << body;

  host.shutdown();
  agg.shutdown();
  global.shutdown();
}

TEST(LiveTraceTest, ThreeLevelTreeStitchesThreeHops) {
  // root (track 0) -> super-aggregator (1) -> aggregators (2, 3) -> stage
  // hosts (4, 5): each hop's parent is the span of the node above it.
  telemetry::SpanTracer tracer;
  transport::InProcNetwork net;
  ThreeLevelTreeOptions options;
  options.tracer = &tracer;
  ThreeLevelTree tree(net, options);
  ASSERT_TRUE(tree.start().is_ok());
  ASSERT_TRUE(tree.root().run_cycles(2).is_ok());

  const auto spans = tracer.snapshot();
  const auto traces = traces_of(spans, "cycle");
  ASSERT_EQ(traces.size(), 2u);
  const auto hop = [&](std::uint64_t trace, const char* name,
                       std::uint32_t track) -> const Span* {
    for (const auto& span : spans) {
      if (span.trace_id == trace && span.name == name && span.track == track) {
        return &span;
      }
    }
    return nullptr;
  };
  for (const std::uint64_t trace : traces) {
    const Span* super_collect = hop(trace, "agg.collect", 1);
    ASSERT_NE(super_collect, nullptr) << "trace " << trace;
    EXPECT_EQ(super_collect->parent_span, derive_span_id(trace, 0, "collect"));
    const Span* super_enforce = hop(trace, "agg.enforce", 1);
    ASSERT_NE(super_enforce, nullptr) << "trace " << trace;
    EXPECT_EQ(super_enforce->parent_span,
              derive_span_id(trace, 0, "disseminate"));
    for (std::uint32_t a = 0; a < 2; ++a) {
      const std::uint32_t agg_track = 2 + a;
      const Span* agg_collect = hop(trace, "agg.collect", agg_track);
      ASSERT_NE(agg_collect, nullptr) << "trace " << trace << " agg " << a;
      EXPECT_EQ(agg_collect->parent_span,
                derive_span_id(trace, 1, "agg.collect"));
      const Span* agg_enforce = hop(trace, "agg.enforce", agg_track);
      ASSERT_NE(agg_enforce, nullptr) << "trace " << trace << " agg " << a;
      EXPECT_EQ(agg_enforce->parent_span,
                derive_span_id(trace, 1, "agg.enforce"));

      const std::uint32_t host_track = 4 + a;
      const Span* stage_collect = hop(trace, "stage.collect", host_track);
      ASSERT_NE(stage_collect, nullptr) << "trace " << trace << " host " << a;
      EXPECT_EQ(stage_collect->parent_span,
                derive_span_id(trace, agg_track, "agg.collect"));
      const Span* stage_enforce = hop(trace, "stage.enforce", host_track);
      ASSERT_NE(stage_enforce, nullptr) << "trace " << trace << " host " << a;
      EXPECT_EQ(stage_enforce->parent_span,
                derive_span_id(trace, agg_track, "agg.enforce"));
    }
  }
}

}  // namespace
}  // namespace sds::runtime
