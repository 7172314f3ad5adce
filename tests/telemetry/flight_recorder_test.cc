// Always-on flight recorder: fixed preallocated ring of POD span
// records, oldest-first snapshots, name truncation, and the JSON dump
// served by /flight and written on faults.
#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "telemetry/span_tracer.h"

namespace sds::telemetry {
namespace {

Span make_span(const std::string& name, std::uint64_t cycle) {
  Span span;
  span.name = name;
  span.category = "cycle";
  span.track = 3;
  span.cycle = cycle;
  span.start = micros(10 * cycle);
  span.duration = micros(7);
  span.trace_id = cycle;
  span.span_id = derive_span_id(cycle, span.track, name);
  span.parent_span = derive_span_id(cycle, span.track, "cycle");
  span.phase = SpanPhase::kCollect;
  return span;
}

TEST(FlightRecordTest, FromSpanCopiesIdentity) {
  const Span span = make_span("collect", 9);
  const FlightRecord rec = FlightRecord::from_span(span);
  EXPECT_EQ(rec.name_view(), "collect");
  EXPECT_EQ(rec.trace_id, 9u);
  EXPECT_EQ(rec.span_id, span.span_id);
  EXPECT_EQ(rec.parent_span, span.parent_span);
  EXPECT_EQ(rec.cycle, 9u);
  EXPECT_EQ(rec.track, 3u);
  EXPECT_EQ(rec.start_ns, span.start.count());
  EXPECT_EQ(rec.duration_ns, span.duration.count());
  EXPECT_EQ(rec.phase, SpanPhase::kCollect);
}

TEST(FlightRecordTest, LongNamesTruncateAtCapacity) {
  FlightRecord rec;
  const std::string long_name(2 * FlightRecord::kNameCapacity, 'x');
  rec.set_name(long_name);
  EXPECT_EQ(rec.name_view().size(), FlightRecord::kNameCapacity);
  EXPECT_EQ(rec.name_view(),
            long_name.substr(0, FlightRecord::kNameCapacity));
  // NUL terminator survives in the last slot.
  EXPECT_EQ(rec.name[FlightRecord::kNameCapacity], '\0');
}

TEST(FlightRecorderTest, RingKeepsNewestOldestFirst) {
  FlightRecorder flight(/*capacity=*/4);
  EXPECT_EQ(flight.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    // Built in two steps: GCC 12's -Wrestrict misfires on the operator+
    // temporary here under -O3 (PR 105329).
    std::string name = "s";
    name += std::to_string(i);
    flight.record(make_span(name, i));
  }
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.dropped(), 6u);
  const auto records = flight.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().name_view(), "s6");
  EXPECT_EQ(records.back().name_view(), "s9");
  // Oldest-first means monotone cycle ids here.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].cycle, records[i - 1].cycle);
  }
}

TEST(FlightRecorderTest, DumpJsonCarriesEnvelopeAndRecords) {
  FlightRecorder flight(/*capacity=*/8);
  flight.record(make_span("collect", 2));
  const std::string json = flight.dump_json("global", "degraded-cycle");
  EXPECT_NE(json.find("\"component\":\"global\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"reason\":\"degraded-cycle\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"collect\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"collect\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":2"), std::string::npos);
  EXPECT_NE(json.find("\"span\":" +
                      std::to_string(derive_span_id(2, 3, "collect"))),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(FlightRecorderTest, ResetClearsRingAndCounters) {
  FlightRecorder flight(/*capacity=*/4);
  flight.record(make_span("a", 1));
  flight.record(make_span("b", 2));
  flight.reset();
  EXPECT_EQ(flight.recorded(), 0u);
  EXPECT_EQ(flight.dropped(), 0u);
  EXPECT_TRUE(flight.snapshot().empty());
  const std::string json = flight.dump_json("c", "r");
  EXPECT_NE(json.find("\"records\":[]"), std::string::npos) << json;
}

TEST(FlightRecorderTest, ZeroCapacityClampsToOne) {
  FlightRecorder flight(/*capacity=*/0);
  EXPECT_EQ(flight.capacity(), 1u);
  flight.record(make_span("only", 1));
  flight.record(make_span("newer", 2));
  const auto records = flight.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().name_view(), "newer");
}

}  // namespace
}  // namespace sds::telemetry
