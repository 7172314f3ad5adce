// Live-runtime coordinated telemetry: several servers in one process
// share one MetricsRegistry (and one SpanTracer), so transport byte
// counters, cycle histograms, gather stats and per-component counters
// are all visible through a single snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "runtime/aggregator_server.h"
#include "runtime/global_server.h"
#include "runtime/stage_host.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "transport/inproc.h"
#include "workload/generators.h"

namespace sds::runtime {
namespace {

using telemetry::Labels;
using telemetry::MetricSample;

TEST(RuntimeTelemetryTest, FlatServersShareOneRegistry) {
  telemetry::MetricsRegistry registry;
  telemetry::SpanTracer tracer;
  transport::InProcNetwork net;

  GlobalServerOptions gopts;
  gopts.core.budgets = {4000.0, 400.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.registry = &registry;
  gopts.telemetry.tracer = &tracer;
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());
  EXPECT_EQ(global.metrics(), &registry);
  EXPECT_EQ(global.tracer(), &tracer);

  StageHostOptions hopts;
  hopts.controller_addresses = {"global"};
  hopts.telemetry.enabled = true;
  hopts.telemetry.registry = &registry;
  StageHost host(net, "host0", hopts);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  ASSERT_TRUE(global.run_cycles(3).is_ok());

  const auto snap = registry.snapshot();

  // Transport byte counters from both components, one registry.
  const MetricSample* global_tx =
      snap.find("sds_transport_bytes_sent", Labels{{"component", "global"}});
  ASSERT_NE(global_tx, nullptr);
  EXPECT_GT(global_tx->value, 0.0);
  const MetricSample* host_rx = snap.find(
      "sds_transport_bytes_received", Labels{{"component", "stage_host"}});
  ASSERT_NE(host_rx, nullptr);
  EXPECT_GT(host_rx->value, 0.0);
  // Everything the global sent went to this host (the only peer), so the
  // two series must be in the same ballpark.
  EXPECT_GE(host_rx->value, global_tx->value * 0.5);

  // Cycle histograms land in the same snapshot.
  const MetricSample* total = snap.find("sds_cycle_total_latency_ns",
                                        Labels{{"component", "global"}});
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->hist.count, 3u);
  for (const char* phase : {"collect", "compute", "enforce"}) {
    const MetricSample* sample =
        snap.find("sds_cycle_phase_latency_ns",
                  Labels{{"component", "global"}, {"phase", phase}});
    ASSERT_NE(sample, nullptr) << phase;
    EXPECT_EQ(sample->hist.count, 3u) << phase;
  }
  const MetricSample* cycles =
      snap.find("sds_cycles_total", Labels{{"component", "global"}});
  ASSERT_NE(cycles, nullptr);
  EXPECT_DOUBLE_EQ(cycles->value, 3.0);

  // Gather-layer instruments (collect + enforce fan-outs).
  const MetricSample* gathers = snap.find("sds_rpc_gathers_started_total",
                                          Labels{{"component", "global"}});
  ASSERT_NE(gathers, nullptr);
  EXPECT_GE(gathers->value, 6.0);  // >= 2 gathers per cycle
  const MetricSample* replies =
      snap.find("sds_rpc_replies_total", Labels{{"component", "global"}});
  ASSERT_NE(replies, nullptr);
  EXPECT_GE(replies->value, 24.0);  // 3 cycles × 4 stages × 2 phases

  // Stage-host side counter, same registry.
  const MetricSample* answered =
      snap.find("sds_stage_collects_answered_total",
                Labels{{"component", "stage_host"}});
  ASSERT_NE(answered, nullptr);
  EXPECT_DOUBLE_EQ(answered->value, 12.0);  // 3 cycles × 4 stages

  // The shared tracer holds one cycle + five phase spans per cycle (the
  // three wall phases plus the aggregate/disseminate sub-segments).
  EXPECT_EQ(tracer.recorded(), 18u);
  int cycle_spans = 0;
  for (const auto& span : tracer.snapshot()) {
    EXPECT_EQ(span.category, "cycle");
    EXPECT_GE(span.duration, Nanos{0});  // sub-segments may be empty
    if (span.name == "cycle") ++cycle_spans;
  }
  EXPECT_EQ(cycle_spans, 3);

  host.shutdown();
  global.shutdown();
}

TEST(RuntimeTelemetryTest, HierarchyReportsPerComponentSeries) {
  telemetry::MetricsRegistry registry;
  transport::InProcNetwork net;

  GlobalServerOptions gopts;
  gopts.core.budgets = {2000.0, 200.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.registry = &registry;
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());

  AggregatorServerOptions aopts;
  aopts.id = ControllerId{0};
  aopts.upstream_address = "global";
  aopts.telemetry.enabled = true;
  aopts.telemetry.registry = &registry;
  AggregatorServer agg(net, "agg0", aopts);
  ASSERT_TRUE(agg.start().is_ok());

  StageHostOptions hopts;
  hopts.controller_addresses = {"agg0"};
  hopts.telemetry.enabled = true;
  hopts.telemetry.registry = &registry;
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

  const auto snap = registry.snapshot();
  // Each tier contributes its own labeled transport series.
  for (const char* component : {"global", "aggregator", "stage_host"}) {
    const MetricSample* tx = snap.find("sds_transport_bytes_sent",
                                       Labels{{"component", component}});
    ASSERT_NE(tx, nullptr) << component;
    EXPECT_GT(tx->value, 0.0) << component;
  }
  // The aggregator served every cycle and gathered from its stages.
  const MetricSample* served = snap.find(
      "sds_aggregator_cycles_served_total", Labels{{"component", "aggregator"}});
  ASSERT_NE(served, nullptr);
  EXPECT_DOUBLE_EQ(served->value, 2.0);
  const MetricSample* agg_gathers = snap.find(
      "sds_rpc_gathers_started_total", Labels{{"component", "aggregator"}});
  ASSERT_NE(agg_gathers, nullptr);
  EXPECT_GE(agg_gathers->value, 4.0);  // collect + enforce per cycle

  host.shutdown();
  agg.shutdown();
  global.shutdown();
}

TEST(RuntimeTelemetryTest, TransportHandoffGaugesFollowTheCounters) {
  telemetry::MetricsRegistry registry;
  transport::InProcNetwork net;
  GlobalServerOptions gopts;
  gopts.core.budgets = {4000.0, 400.0};
  gopts.telemetry.enabled = true;
  gopts.telemetry.registry = &registry;
  GlobalControllerServer global(net, "global", gopts);
  ASSERT_TRUE(global.start().is_ok());
  StageHostOptions hopts;
  hopts.controller_addresses = {"global"};
  StageHost host(net, "host0", hopts);
  ASSERT_TRUE(host.start().is_ok());
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(host.add_stage({StageId{i}, NodeId{i}, JobId{0}, "n"},
                               workload::constant(1000),
                               workload::constant(100))
                    .is_ok());
  }
  ASSERT_TRUE(host.register_all().is_ok());
  const transport::Counters registered = global.endpoint()->counters();
  ASSERT_TRUE(global.run_cycles(3).is_ok());

  // The global's cycle sends all come from the thread running the
  // cycles, so its counters are still when the cycles have returned.
  const transport::Counters counters = global.endpoint()->counters();
  const auto snap = registry.snapshot();
  const Labels labels{{"component", "global"}};
  const MetricSample* handoffs = snap.find("sds_transport_handoffs", labels);
  const MetricSample* wakeups = snap.find("sds_transport_wakeups", labels);
  ASSERT_NE(handoffs, nullptr);
  ASSERT_NE(wakeups, nullptr);
  EXPECT_EQ(handoffs->value, static_cast<double>(counters.handoffs));
  EXPECT_EQ(wakeups->value, static_cast<double>(counters.wakeups));
  // Each cycle's collect and enforce waves of 100 frames leave in two
  // chunks each, not a hand-off per frame.
  EXPECT_EQ(counters.messages_sent - registered.messages_sent, 600u);
  EXPECT_EQ(counters.handoffs - registered.handoffs, 12u);
  EXPECT_LE(counters.wakeups, counters.handoffs);
}

}  // namespace
}  // namespace sds::runtime
