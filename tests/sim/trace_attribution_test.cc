// Causal cycle tracing in the simulator: every cycle yields one span per
// phase with deterministic derive_span_id identities and correct
// parent/child links across components (controller track 0, aggregator /
// stage tracks), and attaching a tracer or flight recorder never perturbs
// simulated results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/span_tracer.h"

namespace sds::sim {
namespace {

using telemetry::Span;
using telemetry::derive_span_id;

ExperimentConfig base_config(std::size_t aggregators) {
  ExperimentConfig config;
  config.num_stages = 8;
  config.num_aggregators = aggregators;
  config.stages_per_job = 4;
  config.max_cycles = 3;
  config.duration = seconds(60);
  return config;
}

TEST(TraceAttributionTest, FlatSimLinksPhasesAndStageHop) {
  telemetry::SpanTracer tracer;
  const auto result = run_experiment([&] {
    auto config = base_config(/*aggregators=*/0);
    config.tracer = &tracer;
    return config;
  }());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result.value().cycles, 3u);

  const auto spans = tracer.snapshot();
  std::set<std::uint64_t> traces;
  std::set<std::uint32_t> tracks;
  for (const auto& span : spans) {
    if (span.name == "cycle") traces.insert(span.trace_id);
    tracks.insert(span.track);
  }
  ASSERT_EQ(traces.size(), 3u);  // one trace per cycle
  EXPECT_GE(tracks.size(), 2u);  // controller + stage component

  for (const std::uint64_t trace : traces) {
    const auto root = derive_span_id(trace, 0, "cycle");
    const auto collect = derive_span_id(trace, 0, "collect");
    const auto enforce = derive_span_id(trace, 0, "enforce");
    // Expected parent by span name; every controller-track span id must
    // be derive_span_id(trace, 0, name).
    const std::vector<std::pair<std::string, std::uint64_t>> expect = {
        {"cycle", 0},          {"collect", root},
        {"aggregate", collect}, {"compute", root},
        {"disseminate", enforce}, {"enforce", root},
    };
    for (const auto& [name, parent] : expect) {
      const auto it = std::find_if(
          spans.begin(), spans.end(), [&, trace = trace](const Span& s) {
            return s.trace_id == trace && s.track == 0 && s.name == name;
          });
      ASSERT_NE(it, spans.end()) << "trace " << trace << " missing " << name;
      EXPECT_EQ(it->span_id, derive_span_id(trace, 0, name)) << name;
      EXPECT_EQ(it->parent_span, parent) << name;
      EXPECT_EQ(it->cycle, trace) << name;
    }
    // Cross-component link: the representative stage hop's parent is the
    // controller's collect span in the same trace.
    const auto hop = std::find_if(
        spans.begin(), spans.end(), [trace = trace](const Span& s) {
          return s.trace_id == trace && s.name == "stage.collect";
        });
    ASSERT_NE(hop, spans.end()) << "trace " << trace;
    EXPECT_EQ(hop->category, "component");
    EXPECT_NE(hop->track, 0u);
    EXPECT_EQ(hop->parent_span, collect);
    EXPECT_EQ(hop->span_id, derive_span_id(trace, hop->track, "stage.collect"));
    EXPECT_EQ(hop->phase, telemetry::SpanPhase::kCollect);
  }
}

TEST(TraceAttributionTest, HierSimLinksAggregatorHops) {
  telemetry::SpanTracer tracer;
  const auto result = run_experiment([&] {
    auto config = base_config(/*aggregators=*/2);
    config.tracer = &tracer;
    return config;
  }());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  const auto spans = tracer.snapshot();
  std::set<std::uint64_t> traces;
  for (const auto& span : spans) {
    if (span.name == "cycle") traces.insert(span.trace_id);
  }
  ASSERT_EQ(traces.size(), 3u);

  for (const std::uint64_t trace : traces) {
    const auto collect = derive_span_id(trace, 0, "collect");
    std::set<std::uint32_t> agg_tracks;
    for (const auto& span : spans) {
      if (span.trace_id != trace || span.name != "agg.collect") continue;
      EXPECT_EQ(span.category, "component");
      EXPECT_EQ(span.parent_span, collect);
      EXPECT_EQ(span.span_id,
                derive_span_id(trace, span.track, "agg.collect"));
      agg_tracks.insert(span.track);
    }
    // Both aggregators report their sub-collect on their own track.
    EXPECT_EQ(agg_tracks.size(), 2u) << "trace " << trace;
  }
}

/// Bitwise comparison of everything a bench fingerprints.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.final_data_limit_sum, b.final_data_limit_sum);
  EXPECT_EQ(a.final_meta_limit_sum, b.final_meta_limit_sum);
  EXPECT_EQ(a.mean_data_utilization, b.mean_data_utilization);
  EXPECT_EQ(a.mean_meta_utilization, b.mean_meta_utilization);
  ASSERT_EQ(a.final_data_limits.size(), b.final_data_limits.size());
  for (std::size_t i = 0; i < a.final_data_limits.size(); ++i) {
    EXPECT_EQ(a.final_data_limits[i], b.final_data_limits[i]) << i;
  }
}

TEST(TraceAttributionTest, TracingDoesNotPerturbSimulatedResults) {
  const auto plain = run_experiment(base_config(/*aggregators=*/2));
  ASSERT_TRUE(plain.is_ok());

  telemetry::SpanTracer tracer;
  telemetry::FlightRecorder flight;
  const auto traced = run_experiment([&] {
    auto config = base_config(/*aggregators=*/2);
    config.tracer = &tracer;
    config.flight = &flight;
    return config;
  }());
  ASSERT_TRUE(traced.is_ok());

  expect_identical(plain.value(), traced.value());
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_GT(flight.recorded(), 0u);
}

TEST(TraceAttributionTest, FlightRecorderAloneCapturesPhaseSpans) {
  telemetry::FlightRecorder flight;
  const auto result = run_experiment([&] {
    auto config = base_config(/*aggregators=*/0);
    config.flight = &flight;
    return config;
  }());
  ASSERT_TRUE(result.is_ok());
  // 3 cycles x 6 phase spans minimum, with no SpanTracer attached.
  EXPECT_GE(flight.recorded(), 18u);
  bool saw_cycle = false;
  for (const auto& rec : flight.snapshot()) {
    if (rec.name_view() == "cycle") saw_cycle = true;
  }
  EXPECT_TRUE(saw_cycle);
}

}  // namespace
}  // namespace sds::sim
